let block_size = 4096
let sb_blocks = 2
let first_data_block = 2
let ptr_size = 8
let radix_fanout = block_size / ptr_size
let name_max = 200

let sector = 512

let sb_magic = 0x4D534E41505342L (* "MSNAPSB" *)
let hdr_magic = 0x4D534E41504F42L (* "MSNAPOB" *)

type superblock = {
  generation : int;
  directory_block : int;
  total_blocks : int;
}

(* Sector layout: magic, generation, directory, total, and in the last
   8 bytes the {!Msnap_util.Wire.checksum} of the first (sector-8), the
   same checksum as every other on-media record. *)
let seal_checksum b = Msnap_util.Wire.checksum b ~pos:0 ~len:(sector - 8)

let seal sector_bytes =
  Msnap_util.Wire.set_u64 sector_bytes (sector - 8) (seal_checksum sector_bytes);
  sector_bytes

let sealed_ok sector_bytes =
  Bytes.length sector_bytes >= sector
  && Int64.equal
       (Bytes.get_int64_le sector_bytes (sector - 8))
       (Int64.of_int (seal_checksum sector_bytes))

let superblock_to_bytes sb =
  let b = Bytes.make sector '\000' in
  Bytes.set_int64_le b 0 sb_magic;
  Bytes.set_int64_le b 8 (Int64.of_int sb.generation);
  Bytes.set_int64_le b 16 (Int64.of_int sb.directory_block);
  Bytes.set_int64_le b 24 (Int64.of_int sb.total_blocks);
  seal b

let superblock_of_bytes b =
  if (not (sealed_ok b)) || Bytes.get_int64_le b 0 <> sb_magic then None
  else
    Some
      {
        generation = Int64.to_int (Bytes.get_int64_le b 8);
        directory_block = Int64.to_int (Bytes.get_int64_le b 16);
        total_blocks = Int64.to_int (Bytes.get_int64_le b 24);
      }

type header = {
  obj_id : int;
  obj_name : string;
  epoch : int;
  root_block : int;
  height : int;
  size_bytes : int;
  meta : int;
}

let header_to_bytes h =
  if String.length h.obj_name > name_max then
    invalid_arg "Layout.header_to_bytes: name too long";
  let b = Bytes.make sector '\000' in
  Bytes.set_int64_le b 0 hdr_magic;
  Bytes.set_int64_le b 8 (Int64.of_int h.obj_id);
  Bytes.set_int64_le b 16 (Int64.of_int h.epoch);
  Bytes.set_int64_le b 24 (Int64.of_int h.root_block);
  Bytes.set_int64_le b 32 (Int64.of_int h.height);
  Bytes.set_int64_le b 40 (Int64.of_int h.size_bytes);
  Bytes.set_int64_le b 48 (Int64.of_int h.meta);
  Bytes.set_int64_le b 56 (Int64.of_int (String.length h.obj_name));
  Bytes.blit_string h.obj_name 0 b 64 (String.length h.obj_name);
  seal b

let header_of_bytes b =
  if (not (sealed_ok b)) || Bytes.get_int64_le b 0 <> hdr_magic then None
  else begin
    let name_len = Int64.to_int (Bytes.get_int64_le b 56) in
    if name_len < 0 || name_len > name_max then None
    else
      Some
        {
          obj_id = Int64.to_int (Bytes.get_int64_le b 8);
          epoch = Int64.to_int (Bytes.get_int64_le b 16);
          root_block = Int64.to_int (Bytes.get_int64_le b 24);
          height = Int64.to_int (Bytes.get_int64_le b 32);
          size_bytes = Int64.to_int (Bytes.get_int64_le b 40);
          meta = Int64.to_int (Bytes.get_int64_le b 48);
          obj_name = Bytes.sub_string b 64 name_len;
        }
  end

(* Directory block: count, then per entry [header_block; name_len; name
   bytes padded to 8]. *)
let max_directory_entries = 128

let directory_to_bytes entries =
  if List.length entries > max_directory_entries then
    invalid_arg "Layout.directory_to_bytes: too many objects";
  let b = Bytes.make block_size '\000' in
  Bytes.set_int64_le b 0 (Int64.of_int (List.length entries));
  let pos = ref 8 in
  List.iter
    (fun (name, hblock) ->
      let nlen = String.length name in
      if nlen > name_max then invalid_arg "directory: name too long";
      Bytes.set_int64_le b !pos (Int64.of_int hblock);
      Bytes.set_int64_le b (!pos + 8) (Int64.of_int nlen);
      Bytes.blit_string name 0 b (!pos + 16) nlen;
      pos := !pos + 16 + ((nlen + 7) / 8 * 8))
    entries;
  b

let directory_of_bytes b =
  let count = Int64.to_int (Bytes.get_int64_le b 0) in
  let pos = ref 8 in
  List.init count (fun _ ->
      let hblock = Int64.to_int (Bytes.get_int64_le b !pos) in
      let nlen = Int64.to_int (Bytes.get_int64_le b (!pos + 8)) in
      let name = Bytes.sub_string b (!pos + 16) nlen in
      pos := !pos + 16 + ((nlen + 7) / 8 * 8);
      (name, hblock))
