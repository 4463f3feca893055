(* Growable ring buffer of ints — a flat [int Queue.t] that never
   allocates per element. Used for FIFO orders on hot paths (e.g. TLB
   eviction): push/pop are O(1) and reuse the backing array. *)

type t = { mutable data : int array; mutable head : int; mutable len : int }

let create ?(initial = 16) () =
  { data = Array.make (max 2 initial) 0; head = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) 0 in
  (* Unwrap: oldest element lands at index 0. *)
  let tail1 = min t.len (cap - t.head) in
  Array.blit t.data t.head data 0 tail1;
  Array.blit t.data 0 data tail1 (t.len - tail1);
  t.data <- data;
  t.head <- 0

let push t v =
  let cap = Array.length t.data in
  if t.len = cap then grow t;
  let cap = Array.length t.data in
  let i = t.head + t.len in
  let i = if i >= cap then i - cap else i in
  Array.unsafe_set t.data i v;
  t.len <- t.len + 1

(* Pop the oldest element, or -1 when empty. *)
let pop t =
  if t.len = 0 then -1
  else begin
    let v = Array.unsafe_get t.data t.head in
    let h = t.head + 1 in
    t.head <- (if h = Array.length t.data then 0 else h);
    t.len <- t.len - 1;
    v
  end

let clear t =
  t.head <- 0;
  t.len <- 0
