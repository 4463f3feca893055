module Pool = Msnap_util.Pool

type node = Bytes.t

let fanout = Layout.radix_fanout
let bsz = Layout.block_size

let get n i = Int64.to_int (Bytes.get_int64_le n (i * 8))
let set n i v = Bytes.set_int64_le n (i * 8) (Int64.of_int v)

let capacity ~height =
  if height <= 0 then 0
  else begin
    let rec pow acc n = if n = 0 then acc else pow (acc * fanout) (n - 1) in
    pow 1 height
  end

let height_for n =
  let rec go h = if capacity ~height:h >= n then h else go (h + 1) in
  if n <= 0 then 0 else go 1

type update_result = {
  new_root : int;
  new_height : int;
  node_writes : (int * node) list;
  freed : int list;
  nodes_visited : int;
}

(* A subtree being COWed is either a real on-disk node (possibly absent) or
   a "grown" virtual level: when the tree height grows, the old root becomes
   the leftmost descendant of the new root, and every level between them is
   a virtual node whose only child is slot 0. *)
type subtree = Block of int | Grown

let update_batch ~read_node ~alloc ~root ~height updates =
  match updates with
  | [] -> { new_root = root; new_height = height; node_writes = []; freed = [];
            nodes_visited = 0 }
  | _ ->
    let max_idx = List.fold_left (fun a (i, _) -> max a i) 0 updates in
    let needed_height = max (height_for (max_idx + 1)) (max height 1) in
    let orig_height = height and orig_root = root in
    let writes = ref [] in
    let freed = ref [] in
    let visited = ref 0 in
    let fresh contents =
      match alloc 1 with
      | [ b ] ->
        writes := (b, contents) :: !writes;
        b
      | _ -> assert false
    in
    (* COW-update [src] at [level] (1 = leaf whose entries are data
       blocks). [ups] indexes are relative to this subtree. Returns the
       fresh block holding the updated node. *)
    let rec cow level src ups =
      incr visited;
      let entries, old_block =
        match src with
        | Block 0 | Grown -> (Pool.alloc_zeroed bsz, 0)
        | Block b ->
          let old = read_node b and n = Pool.alloc bsz in
          Bytes.blit old 0 n 0 bsz;
          (n, b)
      in
      if level = 1 then
        List.iter
          (fun (idx, data) ->
            assert (idx >= 0 && idx < fanout);
            let prev = get entries idx in
            if prev <> 0 then freed := prev :: !freed;
            set entries idx data)
          ups
      else begin
        let span = capacity ~height:(level - 1) in
        let groups = Hashtbl.create 8 in
        let slots = ref [] in
        let touch slot =
          if not (Hashtbl.mem groups slot) then begin
            Hashtbl.add groups slot (ref []);
            slots := slot :: !slots
          end
        in
        (* A grown level must always rewrite slot 0 to link the old tree
           in, even if no update lands there. *)
        (match src with
        | Grown when orig_root <> 0 -> touch 0
        | Grown | Block _ -> ());
        List.iter
          (fun (idx, data) ->
            let slot = idx / span in
            touch slot;
            let l = Hashtbl.find groups slot in
            l := (idx mod span, data) :: !l)
          ups;
        List.iter
          (fun slot ->
            let rel_ups = List.rev !(Hashtbl.find groups slot) in
            let child_src =
              match src with
              | Grown when slot = 0 ->
                if level - 1 > orig_height then Grown else Block orig_root
              | Grown -> Block 0
              | Block _ -> Block (get entries slot)
            in
            (* Linking the unmodified old tree in does not rewrite it. *)
            if rel_ups = [] then begin
              match child_src with
              | Block b -> set entries slot b
              | Grown -> set entries slot (cow (level - 1) child_src [])
            end
            else set entries slot (cow (level - 1) child_src rel_ups))
          (List.rev !slots)
      end;
      if old_block <> 0 then freed := old_block :: !freed;
      fresh entries
    in
    let top_src =
      if orig_root = 0 then Block 0
      else if needed_height = orig_height then Block orig_root
      else Grown
    in
    let new_root = cow needed_height top_src updates in
    { new_root; new_height = needed_height; node_writes = List.rev !writes;
      freed = !freed; nodes_visited = !visited }

let lookup ~read_node ~root ~height idx =
  if root = 0 || idx < 0 || idx >= capacity ~height then 0
  else begin
    let rec go level block idx =
      if block = 0 then 0
      else if level = 1 then get (read_node block) idx
      else begin
        let span = capacity ~height:(level - 1) in
        go (level - 1) (get (read_node block) (idx / span)) (idx mod span)
      end
    in
    go height root idx
  end

(* [f i b] for every non-hole pointer [b], at slot [i], of a node image. *)
let iter_ptrs n f =
  for i = 0 to fanout - 1 do
    let b = get n i in
    if b <> 0 then f i b
  done

let iter ~read_node ~root ~height ~f =
  let rec go level block base =
    let entries = read_node block in
    if level = 1 then iter_ptrs entries (fun i b -> f ~index:(base + i) ~block:b)
    else begin
      let span = capacity ~height:(level - 1) in
      iter_ptrs entries (fun i b -> go (level - 1) b (base + (i * span)))
    end
  in
  if root <> 0 then go height root 0

let iter_nodes ~read_node ~root ~height ~f =
  let rec go level block =
    f block;
    if level > 1 then iter_ptrs (read_node block) (fun _ b -> go (level - 1) b)
  in
  if root <> 0 then go height root
