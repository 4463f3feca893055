type table = { tbl_name : string; tree : Btree.t }

type t = {
  pgr : Pager.t;
  tables : (string, table) Hashtbl.t;
  mutable catalog_dirty : bool;
}

let magic = 0x4D53514Cl (* "MSQL" *)

let meta_page = 1

(* Page 1: u32 magic, u32 page count, u16 table count, then per table
   [u8 name length; name; u32 root]. *)
let write_catalog t =
  let b = Pager.page_for_write t.pgr meta_page in
  Bytes.fill b 0 Page.size '\000';
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 (Int32.of_int (Pager.npages t.pgr));
  Bytes.set_uint16_le b 8 (Hashtbl.length t.tables);
  let pos = ref 10 in
  Hashtbl.iter
    (fun name tbl ->
      Bytes.set_uint8 b !pos (String.length name);
      Bytes.blit_string name 0 b (!pos + 1) (String.length name);
      Bytes.set_int32_le b (!pos + 1 + String.length name)
        (Int32.of_int (Btree.root tbl.tree));
      pos := !pos + 1 + String.length name + 4)
    t.tables;
  t.catalog_dirty <- false

let read_catalog t =
  let b = Pager.get_page t.pgr meta_page in
  if Bytes.get_int32_le b 0 <> magic then ()
  else begin
    let npages = Int32.to_int (Bytes.get_int32_le b 4) in
    Pager.restore_hwm t.pgr npages;
    let ntables = Bytes.get_uint16_le b 8 in
    let pos = ref 10 in
    for _ = 1 to ntables do
      let nlen = Bytes.get_uint8 b !pos in
      let name = Bytes.sub_string b (!pos + 1) nlen in
      let root = Int32.to_int (Bytes.get_int32_le b (!pos + 1 + nlen)) in
      pos := !pos + 1 + nlen + 4;
      Hashtbl.replace t.tables name
        { tbl_name = name; tree = Btree.open_tree t.pgr ~root }
    done
  end

let open_db backend =
  let pgr = Pager.create backend in
  let t = { pgr; tables = Hashtbl.create 8; catalog_dirty = false } in
  read_catalog t;
  t

let pager t = t.pgr

let finish_txn t =
  (* Fold catalog / page-count changes into the committing transaction so
     recovery sees a consistent header. *)
  if t.catalog_dirty || Pager.hwm_changed_in_txn t.pgr then write_catalog t;
  Pager.commit t.pgr

let with_write_txn t f =
  Pager.begin_write t.pgr;
  match f () with
  | v ->
    finish_txn t;
    v
  | exception exn ->
    Pager.rollback t.pgr;
    raise exn

let create_table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None ->
    let make () =
      let tree = Btree.create t.pgr in
      let tbl = { tbl_name = name; tree } in
      Hashtbl.replace t.tables name tbl;
      t.catalog_dirty <- true;
      tbl
    in
    if Pager.in_txn t.pgr then make () else with_write_txn t make

let table t name = Hashtbl.find_opt t.tables name

let put tbl ~key ~value = Btree.insert tbl.tree ~key ~value
let get tbl key = Btree.find tbl.tree key
let delete tbl key = Btree.delete tbl.tree key
let iter tbl f = Btree.iter_range tbl.tree f
let count tbl = Btree.count tbl.tree

let key_of_int v =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  Bytes.to_string b

let int_of_key s = Int64.to_int (String.get_int64_be s 0)
