(* Binary min-heap over (prio, seq): the scheduler's run queue. Entries
   pop in lexicographic (prio, seq) order, seq being the push count, so
   equal priorities pop in push order (DESIGN §13); test/pq.ml, the
   boxed heap this one replaces, is the reference the differential
   tests pin it to. Three parallel columns that grow by doubling, so
   push and pop allocate nothing in steady state. Both sift a hole: the
   entries passed move one step each, and the placed entry is written
   once, where it lands. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable count : int;
  mutable next_seq : int;
  dummy : 'a; (* parked in vacated value cells; never observed *)
  (* The last popped (prio, seq): [push] refuses priorities below it,
     and under Slice.debug_checks every pop is audited against it. *)
  mutable last_prio : int;
  mutable last_seq : int;
}

let create ?(initial = 64) () =
  let n = max 1 initial and dummy : 'a = Obj.magic 0 in
  { prio = Array.make n 0; seq = Array.make n 0; vals = Array.make n dummy;
    count = 0; next_seq = 0; dummy; last_prio = 0; last_seq = -1 }

let length t = t.count
let is_empty t = t.count = 0
let min_prio t = if t.count = 0 then -1 else Array.unsafe_get t.prio 0

let grow t =
  let extend a fill = Array.append a (Array.make (Array.length a) fill) in
  t.prio <- extend t.prio 0;
  t.seq <- extend t.seq 0;
  t.vals <- extend t.vals t.dummy

(* Copy entry [src] into slot [dst]. *)
let move t ~src ~dst =
  Array.unsafe_set t.prio dst (Array.unsafe_get t.prio src);
  Array.unsafe_set t.seq dst (Array.unsafe_get t.seq src);
  Array.unsafe_set t.vals dst (Array.unsafe_get t.vals src)

(* Move the hole at [i] up past every ancestor that a new entry of
   priority [p] precedes; return where the hole stops. A new entry has
   the largest seq, so it precedes exactly the strictly larger
   priorities. *)
let rec sift_up t i p =
  if i = 0 then 0
  else begin
    let parent = (i - 1) lsr 1 in
    if p < Array.unsafe_get t.prio parent then begin
      move t ~src:parent ~dst:i;
      sift_up t parent p
    end
    else i
  end

(* [i] before [j] in (prio, seq) order. *)
let before t i j =
  let pi = Array.unsafe_get t.prio i and pj = Array.unsafe_get t.prio j in
  pi < pj || (pi = pj && Array.unsafe_get t.seq i < Array.unsafe_get t.seq j)

(* Move the hole at [i] down past every smaller child of entry (p, s),
   within the first [n] slots; return where the hole stops. *)
let rec sift_down t i n p s =
  let l = (2 * i) + 1 in
  if l >= n then i
  else begin
    let c = if l + 1 < n && before t (l + 1) l then l + 1 else l in
    let cp = Array.unsafe_get t.prio c in
    if cp < p || (cp = p && Array.unsafe_get t.seq c < s) then begin
      move t ~src:c ~dst:i;
      sift_down t c n p s
    end
    else i
  end

let push t ~prio v =
  if prio < t.last_prio then
    invalid_arg "Minheap.push: priority is below the last popped one";
  if t.count = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  let i = sift_up t t.count prio in
  t.count <- t.count + 1;
  Array.unsafe_set t.prio i prio;
  Array.unsafe_set t.seq i s;
  Array.unsafe_set t.vals i v

let pop_min t =
  if t.count = 0 then invalid_arg "Minheap.pop_min: empty";
  let p = Array.unsafe_get t.prio 0 and s = Array.unsafe_get t.seq 0 in
  let v = Array.unsafe_get t.vals 0 in
  let n = t.count - 1 in
  t.count <- n;
  if n > 0 then begin
    let i =
      sift_down t 0 n (Array.unsafe_get t.prio n) (Array.unsafe_get t.seq n)
    in
    move t ~src:n ~dst:i
  end;
  Array.unsafe_set t.vals n t.dummy;
  if !Slice.debug_checks
     && (p < t.last_prio || (p = t.last_prio && s <= t.last_seq))
  then
    failwith
      (Printf.sprintf "Minheap: order violation: popped (%d,%d) after (%d,%d)"
         p s t.last_prio t.last_seq);
  t.last_prio <- p;
  t.last_seq <- s;
  v
