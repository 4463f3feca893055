type class_stats = {
  cs_size : int;
  cs_hits : int;
  cs_misses : int;
  cs_recycles : int;
  cs_outstanding : int;
  cs_retained : int;
  cs_dropped : int;
}

type totals = {
  t_hits : int;
  t_misses : int;
  t_recycles : int;
  t_outstanding : int;
  t_retained_bytes : int;
}

exception Violation of string

let min_pooled = 4096

(* Retaining more than this per class stops paying: excess recycles are
   dropped to the GC instead of parked. 256 MiB covers the largest
   single-run working set of any class in the bench suite without
   letting a pathological caller pin unbounded host memory. *)
let max_retained_bytes_per_class = 256 * 1024 * 1024

let debug_checks = Slice.debug_checks
let poison = '\xa5'

type cls = {
  c_size : int;
  c_cap : int;
  (* Free buffers as a stack over a growable array: pushing/popping
     allocates nothing (no list cells on the hot path). *)
  mutable c_free : Bytes.t array;
  mutable c_poisoned : bool array; (* parallel: parked under debug_checks *)
  mutable c_len : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_recycles : int;
  mutable c_outstanding : int;
  mutable c_dropped : int;
}

type store = { classes : (int, cls) Hashtbl.t }

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { classes = Hashtbl.create 16 })

let store () = Domain.DLS.get store_key

let cls_for size =
  let s = store () in
  match Hashtbl.find_opt s.classes size with
  | Some c -> c
  | None ->
    let c =
      {
        c_size = size;
        c_cap = max 8 (max_retained_bytes_per_class / size);
        c_free = [||];
        c_poisoned = [||];
        c_len = 0;
        c_hits = 0;
        c_misses = 0;
        c_recycles = 0;
        c_outstanding = 0;
        c_dropped = 0;
      }
    in
    Hashtbl.add s.classes size c;
    c

let check_poison c b =
  let n = Bytes.length b in
  let rec go i =
    if i < n then
      if Bytes.unsafe_get b i <> poison then
        raise
          (Violation
             (Printf.sprintf
                "Pool.alloc: %d-byte pooled buffer was mutated after being \
                 recycled (byte %d): a stale reference wrote through it \
                 (use-after-recycle)"
                c.c_size i))
      else go (i + 1)
  in
  go 0

let alloc n =
  if n < min_pooled then Bytes.create n
  else begin
    let c = cls_for n in
    if c.c_len > 0 then begin
      c.c_len <- c.c_len - 1;
      let b = c.c_free.(c.c_len) in
      c.c_free.(c.c_len) <- Bytes.empty;
      c.c_hits <- c.c_hits + 1;
      c.c_outstanding <- c.c_outstanding + 1;
      if !debug_checks && c.c_poisoned.(c.c_len) then check_poison c b;
      b
    end
    else begin
      c.c_misses <- c.c_misses + 1;
      c.c_outstanding <- c.c_outstanding + 1;
      Bytes.create n
    end
  end

let alloc_zeroed n =
  if n < min_pooled then Bytes.make n '\000'
  else begin
    let b = alloc n in
    Bytes.fill b 0 n '\000';
    b
  end

let recycle b =
  let n = Bytes.length b in
  if n >= min_pooled then begin
    let c = cls_for n in
    if !debug_checks then begin
      for i = 0 to c.c_len - 1 do
        if c.c_free.(i) == b then
          raise
            (Violation
               (Printf.sprintf
                  "Pool.recycle: %d-byte buffer recycled twice (still parked \
                   on the free list)"
                  n))
      done;
      Bytes.fill b 0 n poison
    end;
    c.c_recycles <- c.c_recycles + 1;
    c.c_outstanding <- c.c_outstanding - 1;
    if c.c_len >= c.c_cap then c.c_dropped <- c.c_dropped + 1
    else begin
      if c.c_len >= Array.length c.c_free then begin
        let cap = max 8 (2 * Array.length c.c_free) in
        let nf = Array.make cap Bytes.empty in
        let np = Array.make cap false in
        Array.blit c.c_free 0 nf 0 c.c_len;
        Array.blit c.c_poisoned 0 np 0 c.c_len;
        c.c_free <- nf;
        c.c_poisoned <- np
      end;
      c.c_free.(c.c_len) <- b;
      c.c_poisoned.(c.c_len) <- !debug_checks;
      c.c_len <- c.c_len + 1
    end
  end

let stats () =
  Hashtbl.fold
    (fun _ c acc ->
      {
        cs_size = c.c_size;
        cs_hits = c.c_hits;
        cs_misses = c.c_misses;
        cs_recycles = c.c_recycles;
        cs_outstanding = c.c_outstanding;
        cs_retained = c.c_len;
        cs_dropped = c.c_dropped;
      }
      :: acc)
    (store ()).classes []
  |> List.sort (fun a b -> compare a.cs_size b.cs_size)

let totals () =
  Hashtbl.fold
    (fun _ c t ->
      {
        t_hits = t.t_hits + c.c_hits;
        t_misses = t.t_misses + c.c_misses;
        t_recycles = t.t_recycles + c.c_recycles;
        t_outstanding = t.t_outstanding + c.c_outstanding;
        t_retained_bytes = t.t_retained_bytes + (c.c_len * c.c_size);
      })
    (store ()).classes
    {
      t_hits = 0;
      t_misses = 0;
      t_recycles = 0;
      t_outstanding = 0;
      t_retained_bytes = 0;
    }

let clear () = Hashtbl.reset (store ()).classes
