type class_stats = {
  cs_size : int;
  cs_hits : int;
  cs_misses : int;
  cs_recycles : int;
  cs_outstanding : int;
  cs_retained : int;
}

type totals = {
  t_hits : int;
  t_misses : int;
  t_recycles : int;
  t_outstanding : int;
  t_retained_bytes : int;
}

type chunk = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

exception Violation of string

let min_pooled = 4096
let debug_checks = Slice.debug_checks
let poison = '\xa5'

(* --- host memory: 2 MiB slabs outside the OCaml heap ---

   [slab_stubs.c] maps the slabs and writes headers; it keeps no state
   and checks nothing. Every base address and bump cursor lives in the
   per-domain store below, and [carve_bytes] / [alloc_chunk] check each
   offset against its mapping before each call. *)

external slab_map : int -> int = "msnap_slab_map"
external slab_bytes : int -> int -> int -> Bytes.t = "msnap_slab_bytes"
[@@noalloc]
external slab_view : int -> int -> int -> chunk = "msnap_slab_view"
external slab_owns : Bytes.t -> bool = "msnap_slab_owns" [@@noalloc]

let slab_size = 2 * 1024 * 1024
let line = 64

(* A block's header sits one word before a line boundary, so its data
   starts on a line. *)
let header_off = line - 8

type cls = {
  c_size : int;
  (* Free buffers as a stack over a growable array: pushing/popping
     allocates nothing (no list cells on the hot path). *)
  mutable c_free : Bytes.t array;
  mutable c_poisoned : bool array; (* parallel: parked under debug_checks *)
  mutable c_len : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_recycles : int;
  mutable c_outstanding : int;
}

type store = {
  classes : (int, cls) Hashtbl.t;
  (* The slab pooled [Bytes] are carved from ([b_base] = 0: none yet)
     and the header offset of the next block in it. *)
  mutable b_base : int;
  mutable b_off : int;
  (* The same for chunks. *)
  mutable k_base : int;
  mutable k_off : int;
}

let store_key : store Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { classes = Hashtbl.create 16; b_base = 0; b_off = 0; k_base = 0;
        k_off = 0 })

let store () = Domain.DLS.get store_key

(* Bytes that a [Bytes] block of length [n] spans: one header word and
   [n / 8 + 1] words of data and padding. *)
let block_bytes n = 8 * ((n / 8) + 2)

(* Stub bounds rule: the block must start at a header offset and end
   inside the [size]-byte mapping at [base]. *)
let checked_bytes base size off n =
  if base = 0 || n < 0 || off < 0
     || off land (line - 1) <> header_off
     || off > size - block_bytes n
  then invalid_arg "Pool: slab block out of bounds";
  slab_bytes base off n

(* A fresh out-of-heap buffer of [n] bytes. Blocks of one slab sit a
   whole number of lines apart; a block too large for a slab gets a
   mapping of its own. *)
let carve_bytes s n =
  let need = block_bytes n in
  if header_off + need > slab_size then begin
    let size = Bits.round_up (header_off + need) slab_size in
    checked_bytes (slab_map size) size header_off n
  end
  else begin
    if s.b_base = 0 || s.b_off > slab_size - need then begin
      s.b_base <- slab_map slab_size;
      s.b_off <- header_off
    end;
    let off = s.b_off in
    s.b_off <- off + Bits.round_up need line;
    checked_bytes s.b_base slab_size off n
  end

let alloc_chunk n =
  if n <= 0 || n > slab_size || n land (line - 1) <> 0 then
    invalid_arg "Pool.alloc_chunk: size must be a positive multiple of 64 up to 2 MiB";
  let s = store () in
  if s.k_base = 0 || s.k_off > slab_size - n then begin
    s.k_base <- slab_map slab_size;
    s.k_off <- 0
  end;
  let off = s.k_off in
  if off < 0 || off land (line - 1) <> 0 || off > slab_size - n then
    invalid_arg "Pool: slab chunk out of bounds";
  s.k_off <- off + n;
  slab_view s.k_base off n

let cls_for size =
  let s = store () in
  match Hashtbl.find_opt s.classes size with
  | Some c -> c
  | None ->
    let c =
      {
        c_size = size;
        c_free = [||];
        c_poisoned = [||];
        c_len = 0;
        c_hits = 0;
        c_misses = 0;
        c_recycles = 0;
        c_outstanding = 0;
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
      carve_bytes (store ()) n
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
      if not (slab_owns b) then
        raise (Violation (Printf.sprintf "Pool.recycle: %d-byte heap buffer" n));
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
