type kind = Leaf | Interior

let size = 4096
let header_size = 11

let u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let u16 b off = Bytes.get_uint16_le b off
let set_u16 b off v = Bytes.set_uint16_le b off v
let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff
let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

let is_leaf b = u8 b 0 = 1
let kind_of b = if is_leaf b then Leaf else Interior

let ncells b = u16 b 1
let set_ncells b v = set_u16 b 1 v
let content_start b = u16 b 3
let set_content_start b v = set_u16 b 3 v
let frag b = u16 b 5
let set_frag b v = set_u16 b 5 v
let right_child b = u32 b 7
let set_right_child b v = set_u32 b 7 v

let init b kind =
  Bytes.fill b 0 size '\000';
  set_u8 b 0 (match kind with Leaf -> 1 | Interior -> 2);
  set_ncells b 0;
  set_content_start b size;
  set_frag b 0;
  set_right_child b 0

let ptr_off i = header_size + (2 * i)
let cell_ptr b i = u16 b (ptr_off i)
let set_cell_ptr b i v = set_u16 b (ptr_off i) v

let leaf_cell_size ~key ~value = 4 + String.length key + String.length value
let interior_cell_size ~key = 6 + String.length key

(* Cell bodies: a leaf cell is [u16 klen; u16 vlen; key; value], an
   interior cell [u32 child; u16 klen; key]. [src] holds the body at
   [off]; [leaf] is the page kind (compaction reads bodies from a
   scratch copy, so the kind is passed rather than read from [src]). *)
let span leaf src off =
  if leaf then 4 + u16 src off + u16 src (off + 2) else 6 + u16 src (off + 4)

let cell_size b i = span (is_leaf b) b (cell_ptr b i)

let leaf_key b i =
  let off = cell_ptr b i in
  Bytes.sub_string b (off + 4) (u16 b off)

let leaf_value b i =
  let off = cell_ptr b i in
  let klen = u16 b off in
  Bytes.sub_string b (off + 4 + klen) (u16 b (off + 2))

let interior_child b i = u32 b (cell_ptr b i)
let set_interior_child b i child = set_u32 b (cell_ptr b i) child

let interior_key b i =
  let off = cell_ptr b i in
  Bytes.sub_string b (off + 6) (u16 b (off + 4))

(* Key comparison in place. The loop is a top-level function taking
   everything as arguments: a local recursive closure over the page and
   the probe would be allocated on every comparison. *)
let rec compare_from b boff key i n =
  if i = n then 0
  else
    let c =
      Char.code (Bytes.unsafe_get b (boff + i))
      - Char.code (String.unsafe_get key i)
    in
    if c <> 0 then c else compare_from b boff key (i + 1) n

(* [String.compare] of the [klen] bytes at [b.[koff]] against [key], up
   to sign. When both keys have 8 bytes, the first 8 compare as one
   big-endian word: its unsigned order is their byte order (adding
   [min_int] maps unsigned order onto signed). *)
let compare_stored b koff klen key =
  if koff < 0 || koff + klen > Bytes.length b then
    invalid_arg "Page: cell key out of bounds";
  let n = String.length key in
  let m = if klen < n then klen else n in
  let c =
    if m < 8 then compare_from b koff key 0 m
    else
      let x : int64 = Bytes.get_int64_be b koff
      and y : int64 = String.get_int64_be key 0 in
      if x = y then compare_from b koff key 8 m
      else if Int64.add x Int64.min_int < Int64.add y Int64.min_int then -1
      else 1
  in
  if c <> 0 then c else klen - n

let compare_cell leaf b i key =
  let off = cell_ptr b i in
  if leaf then compare_stored b (off + 4) (u16 b off) key
  else compare_stored b (off + 6) (u16 b (off + 4)) key

let compare_key b i key = compare_cell (is_leaf b) b i key

(* Contiguous free bytes between the pointer array and the cell content. *)
let gap b = content_start b - (header_size + (2 * ncells b))

let free_space b = gap b + frag b - 2

(* Compaction copies the cell content into a page-sized scratch buffer
   and packs it back at the tail. The scratch is per domain: bench cells
   run B-trees on several domains at once. *)
let scratch : Bytes.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Bytes.create size)

(* Rewrite the page with cells packed at the tail, dropping fragmentation. *)
let compact b =
  let s = Domain.DLS.get scratch in
  let leaf = is_leaf b in
  let start = content_start b in
  Bytes.blit b start s start (size - start);
  let tail = ref size in
  for i = 0 to ncells b - 1 do
    let off = cell_ptr b i in
    let len = span leaf s off in
    tail := !tail - len;
    Bytes.blit s off b !tail len;
    set_cell_ptr b i !tail
  done;
  set_content_start b !tail;
  set_frag b 0

let alloc_cell b bytes_needed =
  if gap b < bytes_needed + 2 then compact b;
  if gap b < bytes_needed + 2 then None
  else begin
    let off = content_start b - bytes_needed in
    set_content_start b off;
    Some off
  end

let shift_ptrs_right b i =
  let n = ncells b in
  for j = n downto i + 1 do
    set_cell_ptr b j (cell_ptr b (j - 1))
  done

let leaf_insert_at b i ~key ~value =
  let need = leaf_cell_size ~key ~value in
  match alloc_cell b need with
  | None -> false
  | Some off ->
    shift_ptrs_right b i;
    set_cell_ptr b i off;
    set_ncells b (ncells b + 1);
    set_u16 b off (String.length key);
    set_u16 b (off + 2) (String.length value);
    Bytes.blit_string key 0 b (off + 4) (String.length key);
    Bytes.blit_string value 0 b (off + 4 + String.length key) (String.length value);
    true

let interior_insert_at b i ~child ~key =
  let need = interior_cell_size ~key in
  match alloc_cell b need with
  | None -> false
  | Some off ->
    shift_ptrs_right b i;
    set_cell_ptr b i off;
    set_ncells b (ncells b + 1);
    set_u32 b off child;
    set_u16 b (off + 4) (String.length key);
    Bytes.blit_string key 0 b (off + 6) (String.length key);
    true

(* Account for a removed cell body: one at the bottom of the content
   area grows the gap, any other becomes fragmentation. Never both, or
   [free_space] would count the bytes twice. *)
let release b leaf off =
  let len = span leaf b off in
  if off = content_start b then set_content_start b (off + len)
  else set_frag b (frag b + len)

let delete_at b i =
  let n = ncells b in
  release b (is_leaf b) (cell_ptr b i);
  for j = i to n - 2 do
    set_cell_ptr b j (cell_ptr b (j + 1))
  done;
  set_ncells b (n - 1)

let truncate b keep =
  let n = ncells b in
  if keep < 0 || keep > n then invalid_arg "Page.truncate";
  let leaf = is_leaf b in
  for i = n - 1 downto keep do
    release b leaf (cell_ptr b i)
  done;
  set_ncells b keep

let move_cells src ~from dst =
  let leaf = is_leaf src in
  if leaf <> is_leaf dst then invalid_arg "Page.move_cells: kind mismatch";
  let n = ncells src and d = ncells dst in
  let last_ptr = ptr_off (d + n - from) in
  let tail = ref (content_start dst) in
  for i = from to n - 1 do
    let off = cell_ptr src i in
    let len = span leaf src off in
    if !tail - len < last_ptr then invalid_arg "Page.move_cells: destination full";
    tail := !tail - len;
    Bytes.blit src off dst !tail len;
    set_cell_ptr dst (d + i - from) !tail
  done;
  set_content_start dst !tail;
  set_ncells dst (d + n - from);
  truncate src from

(* Top-level for the same reason as [compare_from]. Invariant: keys
   before [lo] are < key, keys from [hi] are > key. *)
let rec search_in leaf b key lo hi =
  if lo >= hi then -(lo + 1)
  else begin
    let mid = (lo + hi) / 2 in
    let c = compare_cell leaf b mid key in
    if c = 0 then mid
    else if c < 0 then search_in leaf b key (mid + 1) hi
    else search_in leaf b key lo mid
  end

let search b key = search_in (is_leaf b) b key 0 (ncells b)
