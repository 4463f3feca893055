module Sched = Msnap_sim.Sched

type t = { pager : Pager.t; root : int }

(* Userspace cost of examining one node (binary search, comparisons). *)
let node_visit_cost = 250

let max_pair_size = 1024

let create pager =
  let root = Pager.alloc_page pager in
  Page.init (Pager.page_for_write pager root) Page.Leaf;
  { pager; root }

let open_tree pager ~root = { pager; root }

let root t = t.root

(* Child page that covers [key] in an interior node. *)
let child_for b key =
  let i = Page.search b key in
  let i = if i >= 0 then i else -i - 1 in
  if i < Page.ncells b then Page.interior_child b i else Page.right_child b

let find t key =
  let rec go pgno =
    Sched.cpu node_visit_cost;
    let b = Pager.get_page t.pager pgno in
    match Page.kind_of b with
    | Page.Leaf ->
      let i = Page.search b key in
      if i >= 0 then Some (Page.leaf_value b i) else None
    | Page.Interior -> go (child_for b key)
  in
  go t.root

(* Split [pgno] (already full) into itself (low half) and a fresh right
   page. Returns [(separator, right_pgno)]; keys <= separator stay left. *)
let split t pgno =
  let b = Pager.page_for_write t.pager pgno in
  let right_pg = Pager.alloc_page t.pager in
  let rb = Pager.page_for_write t.pager right_pg in
  let n = Page.ncells b in
  let mid = n / 2 in
  match Page.kind_of b with
  | Page.Leaf ->
    Page.init rb Page.Leaf;
    Page.move_cells b ~from:mid rb;
    (Page.leaf_key b (mid - 1), right_pg)
  | Page.Interior ->
    Page.init rb Page.Interior;
    (* The middle separator is promoted; its child becomes the left
       page's right child. *)
    let promoted_key = Page.interior_key b mid in
    let mid_child = Page.interior_child b mid in
    Page.move_cells b ~from:(mid + 1) rb;
    Page.set_right_child rb (Page.right_child b);
    Page.truncate b mid;
    Page.set_right_child b mid_child;
    (promoted_key, right_pg)

(* Index of the cell pointing at [child], or -1. *)
let rec find_child b child i n =
  if i >= n then -1
  else if Page.interior_child b i = child then i
  else find_child b child (i + 1) n

(* Link a freshly split child into an interior node: [child] kept the
   keys <= sep, [new_right] took the rest. The cell pointing to [child]
   (or the right-child slot) is rewired to [(child, sep); (new_right,
   old separator)]. Returns [`Full] (without mutating) when the node
   lacks space, [`Not_here] when the child is not referenced here. *)
let try_link b ~child ~sep ~new_right =
  let n = Page.ncells b in
  let i = find_child b child 0 n in
  if i >= 0 then begin
    (* Room for the (child, sep) cell, plus the old cell's size and some
       slack. This threshold decides when interior nodes split. *)
    if Page.free_space b
       < Page.interior_cell_size ~key:sep + Page.cell_size b i + 8
    then `Full
    else begin
      (* Cell i keeps its separator and now points at [new_right]; the
         new (child, sep) cell goes in front of it. *)
      Page.set_interior_child b i new_right;
      if not (Page.interior_insert_at b i ~child ~key:sep) then
        failwith "Btree: link lost space";
      `Ok
    end
  end
  else if Page.right_child b = child then begin
    if Page.free_space b < Page.interior_cell_size ~key:sep + 8 then `Full
    else begin
      if not (Page.interior_insert_at b n ~child ~key:sep) then
        failwith "Btree: link lost space";
      Page.set_right_child b new_right;
      `Ok
    end
  end
  else `Not_here

(* Insert into the subtree; on child split, returns the (separator,
   new_right_page) the caller must link. *)
let rec insert_into t pgno key value =
  Sched.cpu node_visit_cost;
  let b = Pager.get_page t.pager pgno in
  match Page.kind_of b with
  | Page.Leaf ->
    let b = Pager.page_for_write t.pager pgno in
    (* A replaced pair is deleted first; the key then belongs where it
       was. *)
    let i = Page.search b key in
    let i = if i >= 0 then (Page.delete_at b i; i) else -i - 1 in
    if Page.leaf_insert_at b i ~key ~value then None
    else begin
      let sep, right_pg = split t pgno in
      let target_pg = if String.compare key sep <= 0 then pgno else right_pg in
      let tb = Pager.page_for_write t.pager target_pg in
      let j = Page.search tb key in
      assert (j < 0);
      if not (Page.leaf_insert_at tb (-j - 1) ~key ~value) then
        failwith "Btree.insert: pair exceeds page capacity";
      Some (sep, right_pg)
    end
  | Page.Interior -> (
    let child = child_for b key in
    match insert_into t child key value with
    | None -> None
    | Some (sep, new_right) -> (
      let b = Pager.page_for_write t.pager pgno in
      match try_link b ~child ~sep ~new_right with
      | `Ok -> None
      | `Not_here -> failwith "Btree: child vanished from parent"
      | `Full ->
        (* Split this interior node, then link into whichever half now
           references the child. *)
        let up_sep, up_right = split t pgno in
        let lb = Pager.page_for_write t.pager pgno in
        let result =
          match try_link lb ~child ~sep ~new_right with
          | `Ok -> `Ok
          | `Full -> failwith "Btree: no space after interior split"
          | `Not_here -> (
            let rb = Pager.page_for_write t.pager up_right in
            match try_link rb ~child ~sep ~new_right with
            | `Ok -> `Ok
            | `Full -> failwith "Btree: no space after interior split"
            | `Not_here -> failwith "Btree: child vanished in split")
        in
        (match result with `Ok -> ());
        Some (up_sep, up_right)))

let insert t ~key ~value =
  if String.length key + String.length value > max_pair_size then
    invalid_arg "Btree.insert: pair too large";
  match insert_into t t.root key value with
  | None -> ()
  | Some (sep, right_pg) ->
    (* Root split: keep the root page number stable by moving the root's
       contents to a fresh left page and re-initializing the root as an
       interior node over (left, right). *)
    let rootb = Pager.page_for_write t.pager t.root in
    let left_pg = Pager.alloc_page t.pager in
    let leftb = Pager.page_for_write t.pager left_pg in
    Bytes.blit rootb 0 leftb 0 Page.size;
    Page.init rootb Page.Interior;
    assert (Page.interior_insert_at rootb 0 ~child:left_pg ~key:sep);
    Page.set_right_child rootb right_pg

let delete t key =
  let rec go pgno =
    Sched.cpu node_visit_cost;
    let b = Pager.get_page t.pager pgno in
    match Page.kind_of b with
    | Page.Leaf -> (
      let i = Page.search b key in
      if i < 0 then false
      else begin
        Page.delete_at (Pager.page_for_write t.pager pgno) i;
        true
      end)
    | Page.Interior -> go (child_for b key)
  in
  go t.root

let iter_range t ?lo ?hi f =
  (* Bounds are checked in place; only pairs in range are copied out. *)
  let below_hi b i = match hi with None -> true | Some h -> Page.compare_key b i h <= 0 in
  let above_lo b i = match lo with None -> true | Some l -> Page.compare_key b i l >= 0 in
  let rec go pgno =
    Sched.cpu node_visit_cost;
    let b = Pager.get_page t.pager pgno in
    match Page.kind_of b with
    | Page.Leaf ->
      for i = 0 to Page.ncells b - 1 do
        if above_lo b i && below_hi b i then f (Page.leaf_key b i) (Page.leaf_value b i)
      done
    | Page.Interior ->
      (* Visit children whose key range intersects [lo, hi]. Cell i's
         subtree holds keys <= key_i (and > key_{i-1}). *)
      let n = Page.ncells b in
      let rec visit i =
        if i < n then begin
          if above_lo b i then go (Page.interior_child b i);
          let hi_done = match hi with None -> false | Some h -> Page.compare_key b i h >= 0 in
          if not hi_done then visit (i + 1)
        end
        else go (Page.right_child b)
      in
      visit 0
  in
  go t.root

let count t =
  let n = ref 0 in
  iter_range t (fun _ _ -> incr n);
  !n

let depth t =
  let rec go pgno acc =
    let b = Pager.get_page t.pager pgno in
    match Page.kind_of b with
    | Page.Leaf -> acc
    | Page.Interior ->
      if Page.ncells b > 0 then go (Page.interior_child b 0) (acc + 1)
      else go (Page.right_child b) (acc + 1)
  in
  go t.root 1
