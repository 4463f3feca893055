(* Binary min-heap over boxed (prio, seq, value) entries: the
   scheduler's original run queue, kept deliberately plain. It lives
   with the tests as the reference for the run queue in use
   (Msnap_util.Minheap, the same order over flat columns): the
   differential suite in test_util.ml pins it to this heap pop for
   pop. *)

type 'a entry = { prio : int; seq : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

(* Placeholder for unused slots so they never pin a popped entry (and its
   captured closure/continuation) live. Never read: [size] bounds all
   accesses. *)
let dummy_entry : unit entry = { prio = 0; seq = 0; value = () }
let dummy () : 'a entry = Obj.magic dummy_entry

let create () = { data = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap (dummy ()) in
    Array.blit t.data 0 nd 0 t.size;
    t.data <- nd
  end

let push t ~prio value =
  let e = { prio; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.data.(!i) <- e;
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end
    else continue_ := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.data.(0) <- t.data.(t.size);
      t.data.(t.size) <- dummy ();
      (* sift down *)
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && less t.data.(l) t.data.(!smallest) then smallest := l;
        if r < t.size && less t.data.(r) t.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
        else continue_ := false
      done
    end
    else t.data.(0) <- dummy ();
    Some top.value
  end

let min_prio t = if t.size = 0 then None else Some t.data.(0).prio
