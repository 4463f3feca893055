module Fs = Msnap_fs.Fs
module Pool = Msnap_util.Pool

let index_stride = 64

(* Record: u16 klen | u16 vlen (0xFFFF = tombstone) | key | value *)
let tombstone_tag = 0xFFFF

type t = {
  fs : Fs.t;
  file : Fs.file;
  sst_name : string;
  sst_count : int;
  sst_min : string;
  sst_max : string;
  (* Sparse index: (first key of segment, offset, byte length). *)
  index : (string * int * int) array;
}

let encode_record buf key value =
  let klen = String.length key in
  Buffer.add_uint16_le buf klen;
  (match value with
  | None -> Buffer.add_uint16_le buf tombstone_tag
  | Some v -> Buffer.add_uint16_le buf (String.length v));
  Buffer.add_string buf key;
  match value with None -> () | Some v -> Buffer.add_string buf v

let build fs ~name pairs =
  assert (pairs <> []);
  let segments = ref [] in
  let buf = Buffer.create 65536 in
  let seg_start = ref 0 in
  let seg_key = ref "" in
  let in_seg = ref 0 in
  let flush_segment () =
    if !in_seg > 0 then begin
      segments := (!seg_key, !seg_start, Buffer.length buf - !seg_start) :: !segments;
      seg_start := Buffer.length buf;
      in_seg := 0
    end
  in
  List.iter
    (fun (k, v) ->
      if !in_seg = 0 then seg_key := k;
      encode_record buf k v;
      incr in_seg;
      if !in_seg >= index_stride then flush_segment ())
    pairs;
  flush_segment ();
  let data = Buffer.to_bytes buf in
  let file = Fs.open_file fs name in
  Fs.write fs file ~off:0 data;
  Fs.fsync fs file;
  let min_key = fst (List.hd pairs) in
  let max_key = fst (List.nth pairs (List.length pairs - 1)) in
  {
    fs;
    file;
    sst_name = name;
    sst_count = List.length pairs;
    sst_min = min_key;
    sst_max = max_key;
    index = Array.of_list (List.rev !segments);
  }

let name t = t.sst_name
let count t = t.sst_count

let decode_segment seg =
  let pos = ref 0 in
  let out = ref [] in
  while !pos < Bytes.length seg do
    let klen = Bytes.get_uint16_le seg !pos in
    let vtag = Bytes.get_uint16_le seg (!pos + 2) in
    let key = Bytes.sub_string seg (!pos + 4) klen in
    if vtag = tombstone_tag then begin
      out := (key, None) :: !out;
      pos := !pos + 4 + klen
    end
    else begin
      let value = Bytes.sub_string seg (!pos + 4 + klen) vtag in
      out := (key, Some value) :: !out;
      pos := !pos + 4 + klen + vtag
    end
  done;
  List.rev !out

(* Last segment whose first key is <= key. *)
let segment_for t key =
  let n = Array.length t.index in
  let rec go lo hi =
    if lo >= hi then lo - 1
    else begin
      let mid = (lo + hi) / 2 in
      let k, _, _ = t.index.(mid) in
      if k <= key then go (mid + 1) hi else go lo mid
    end
  in
  let i = go 0 n in
  if i < 0 then None else Some t.index.(i)

let get t key =
  if key < t.sst_min || key > t.sst_max then None
  else
    match segment_for t key with
    | None -> None
    | Some (_, off, len) ->
      (* Pooled staging: the segment bytes only live until decoded. *)
      let seg = Pool.alloc len in
      Fun.protect
        ~finally:(fun () -> Pool.recycle seg)
        (fun () ->
          Fs.read_into t.fs t.file ~off seg ~pos:0 ~len;
          let rec find = function
            | [] -> None
            | (k, v) :: rest ->
              if k = key then Some v else if k > key then None else find rest
          in
          find (decode_segment seg))

let iter t f =
  Array.iter
    (fun (_, off, len) ->
      let seg = Pool.alloc len in
      Fun.protect
        ~finally:(fun () -> Pool.recycle seg)
        (fun () ->
          Fs.read_into t.fs t.file ~off seg ~pos:0 ~len;
          List.iter (fun (k, v) -> f k v) (decode_segment seg)))
    t.index

let remove t = Fs.remove t.fs t.sst_name
