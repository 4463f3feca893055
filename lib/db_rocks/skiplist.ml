module Sched = Msnap_sim.Sched
module Rng = Msnap_util.Rng

let max_level = 12

(* Links point at a per-list sentinel [nil] instead of holding
   [node option]: the hot search loop chases bare pointers with no
   Some-boxing, and end-of-level is a physical-equality test. [nil]'s
   key is never compared — every probe guards [n != nil] first — and
   its empty [next] makes an accidental dereference an immediate
   error. *)
type 'a node = {
  key : string;
  mutable value : 'a;
  next : 'a node array; (* length = node's level *)
}

type 'a t = {
  head : 'a node;
  nil : 'a node;
  rng : Rng.t;
  mutable level : int;
}

(* Userspace cost of one pointer chase + comparison. *)
let hop_cost = 25

let create ?(seed = 0x5C1B) head_value =
  let nil = { key = ""; value = head_value; next = [||] } in
  let head = { key = ""; value = head_value; next = Array.make max_level nil } in
  { head; nil; rng = Rng.create seed; level = 1 }

let succ n = n.next.(0)
let is_end t n = n == t.nil
let holds t n key = n != t.nil && n.key = key
let set_value n v = n.value <- v
let path t = Array.make max_level t.head

let draw_level t =
  let rec go l = if l < max_level && Rng.int t.rng 4 = 0 then go (l + 1) else l in
  go 1

(* Level-0 predecessor of [key]: the full descent, charging one
   [hop_cost] per probe including each level's failing one.
   Allocation-free. *)
let pred0 t key =
  let nil = t.nil in
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    let continue_ = ref true in
    while !continue_ do
      Sched.cpu hop_cost;
      let n = (!x).next.(lvl) in
      if n != nil && n.key < key then x := n else continue_ := false
    done
  done;
  !x

(* [pred0]'s descent, recording each level's predecessor in [path]. *)
let find_path t key path =
  (* Levels the walk won't visit must read as [head]: a link that grows
     the list links them directly off the head. *)
  for i = t.level to max_level - 1 do
    path.(i) <- t.head
  done;
  let nil = t.nil in
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    let continue_ = ref true in
    while !continue_ do
      Sched.cpu hop_cost;
      let n = (!x).next.(lvl) in
      if n != nil && n.key < key then x := n else continue_ := false
    done;
    path.(lvl) <- !x
  done;
  !x

(* The first node at level [i] from [x] on whose successor is not
   below [key]. A caller that yielded since its descent may find nodes
   linked after its path entry since: the walk is uncharged, so no
   fiber runs inside it, and the levels stay sorted. *)
let rec settle t x i key =
  let n = x.next.(i) in
  if n != t.nil && n.key < key then settle t n i key else x

let link t path key value ~level =
  if level > t.level then t.level <- level (* head already covers all levels *);
  let node = { key; value; next = Array.make level t.nil } in
  for i = 0 to level - 1 do
    let x = settle t path.(i) i key in
    node.next.(i) <- x.next.(i);
    x.next.(i) <- node
  done

(* The unlinked node keeps its links, so a reader parked on it walks
   on into the list. *)
let unlink t path n =
  for i = 0 to Array.length n.next - 1 do
    let x = settle t path.(i) i n.key in
    if x.next.(i) == n then x.next.(i) <- n.next.(i)
  done

(* [tails] starts as a fresh [path] and ends holding each level's last
   node. *)
let append t tails key value =
  let level = draw_level t in
  if level > t.level then t.level <- level;
  let node = { key; value; next = Array.make level t.nil } in
  for i = 0 to level - 1 do
    tails.(i).next.(i) <- node;
    tails.(i) <- node
  done

let find t key =
  let n = succ (pred0 t key) in
  if holds t n key then Some n.value else None

let iter_from t key f =
  let nil = t.nil in
  let rec visit n =
    if n != nil then begin
      Sched.cpu hop_cost;
      if f n.key n.value then visit n.next.(0)
    end
  in
  visit (succ (pred0 t key))

let iter t f =
  let nil = t.nil in
  let rec go n =
    if n != nil then begin
      f n.key n.value;
      go n.next.(0)
    end
  in
  go t.head.next.(0)

let clear t =
  Array.fill t.head.next 0 max_level t.nil;
  t.level <- 1
