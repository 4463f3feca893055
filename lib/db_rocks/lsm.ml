module Fs = Msnap_fs.Fs
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe

let l0_trigger = 4

type t = {
  fs : Fs.t;
  lsm_name : string;
  mutable l0 : Sstable.t list; (* newest first *)
  mutable l1 : Sstable.t option;
  mutable next_file : int;
  mutable n_compactions : int;
}

let create fs ~name =
  { fs; lsm_name = name; l0 = []; l1 = None; next_file = 0; n_compactions = 0 }

let fresh_name t =
  let n = Printf.sprintf "%s-%06d.sst" t.lsm_name t.next_file in
  t.next_file <- t.next_file + 1;
  n

(* Merge runs (given newest first) into one sorted list; newer entries
   shadow older ones; tombstones are dropped from the result when
   [drop_tombstones]. *)
let merge_runs ~drop_tombstones runs =
  let tbl = Hashtbl.create 1024 in
  (* Apply oldest first so newer overwrite. *)
  List.iter
    (fun run -> Sstable.iter run (fun k v -> Hashtbl.replace tbl k v))
    (List.rev runs);
  Hashtbl.fold
    (fun k v acc ->
      match v with
      | None when drop_tombstones -> acc
      | v -> (k, v) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let compact t =
  t.n_compactions <- t.n_compactions + 1;
  Metrics.incr Probe.db_compaction;
  let runs = t.l0 @ Option.to_list t.l1 in
  let merged = merge_runs ~drop_tombstones:true runs in
  let olds = runs in
  t.l0 <- [];
  t.l1 <-
    (if merged = [] then None
     else Some (Sstable.build t.fs ~name:(fresh_name t) merged));
  List.iter Sstable.remove olds

let add_run t pairs =
  if pairs <> [] then begin
    let run = Sstable.build t.fs ~name:(fresh_name t) pairs in
    t.l0 <- run :: t.l0;
    if List.length t.l0 >= l0_trigger then compact t
  end

let get t key =
  let rec probe = function
    | [] -> (
      match t.l1 with
      | None -> None
      | Some run -> Sstable.get run key)
    | run :: rest -> (
      match Sstable.get run key with
      | Some v -> Some v
      | None -> probe rest)
  in
  probe t.l0

let collect_from t key ~n =
  let runs = t.l0 @ Option.to_list t.l1 in
  (* Collect extra candidates per run so newest-first shadowing and
     tombstones cannot starve the window. *)
  let per_run = if n > max_int / 2 then max_int else n * 2 in
  (* Precedence: a key's value comes from the newest run containing it. *)
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun run ->
      let taken = ref 0 in
      try
        Sstable.iter run (fun k v ->
            if k >= key && !taken < per_run then begin
              if not (Hashtbl.mem tbl k) then Hashtbl.add tbl k v;
              incr taken
            end
            else if !taken >= per_run then raise Exit)
      with Exit -> ())
    runs;
  Hashtbl.fold
    (fun k v acc -> match v with None -> acc | Some v -> (k, v) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.filteri (fun i _ -> i < n)

let l0_runs t = List.length t.l0
let compactions t = t.n_compactions
