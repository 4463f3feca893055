(* Offline reconstruction of the post-crash media image at a recorded
   boundary.

   [materialize record ~prefix ~torn_seed dev] replays onto [dev] (a
   fresh device with the recorded run's geometry) exactly what a live
   [Device.fail_power ~torn_seed] at boundary [prefix] would have left
   on media:

   - the payloads of every command committed at boundaries 0..prefix,
     applied in boundary (commit) order — later commits overwrite
     earlier ones, as on the live medium;
   - for each member disk, the seeded torn prefixes of the commands
     still in flight at the boundary, newest-issued first (the disk's
     in-flight list is a cons list), drawn from the same rng stream
     [Rng.create ((torn_seed + member) lxor 0x5EED)] with the torn
     budget computed by [Disk.torn_sector_budget] — the function the
     live tear path itself calls, so the two can never drift.

   A command that commits *at* boundary [prefix] is durable, not torn:
   the live crash hook runs after the committing thread has left the
   in-flight list. Everything here is host work on the raw medium
   ([Disk.poke] on [Device.disks]); no simulated IO is issued. *)

module Device = Msnap_blockdev.Device
module Disk = Msnap_blockdev.Disk
module Record = Msnap_blockdev.Record
module Rng = Msnap_util.Rng

let sector = Msnap_sim.Costs.sector

let seg_sectors (s : Record.seg) =
  (Bytes.length s.g_data + sector - 1) / sector

(* In-flight commands of [member] at boundary [prefix], newest-issued
   first — the order the live tear walks the disk's cons list. *)
let inflight_at record ~prefix ~member =
  let b = Record.boundary record prefix in
  List.filter
    (fun (c : Record.cmd) ->
      c.c_member = member && c.c_issue_seq < b.b_seq
      && (c.c_commit_boundary = -1 || c.c_commit_boundary > prefix))
    (List.rev (Record.all_commands record))

let apply_committed dev record ~prefix =
  let disks = Device.disks dev in
  for i = 0 to prefix do
    match (Record.boundary record i).b_cmd with
    | None -> ()
    | Some c ->
      Array.iter
        (fun (s : Record.seg) ->
          Disk.poke disks.(c.c_member) ~off:s.g_off ~data:s.g_data)
        c.c_segs
  done

let apply_torn dev record ~prefix ~torn_seed =
  let b = Record.boundary record prefix in
  let disks = Device.disks dev in
  for member = 0 to Record.members record - 1 do
    let rng = Rng.create ((torn_seed + member) lxor 0x5EED) in
    List.iter
      (fun (c : Record.cmd) ->
        let elapsed = b.b_time - c.c_t0 in
        let total_sectors =
          Array.fold_left (fun a s -> a + seg_sectors s) 0 c.c_segs
        in
        let budget =
          Disk.torn_sector_budget ~rng ~elapsed ~dur:c.c_dur ~total_sectors
        in
        let remaining = ref budget in
        Array.iter
          (fun (s : Record.seg) ->
            let sectors = seg_sectors s in
            let take = min sectors !remaining in
            remaining := !remaining - take;
            if take > 0 then begin
              let nbytes = min (Bytes.length s.g_data) (take * sector) in
              Disk.poke disks.(member) ~off:s.g_off
                ~data:(Bytes.sub s.g_data 0 nbytes)
            end)
          c.c_segs)
      (inflight_at record ~prefix ~member)
  done

let materialize record ~prefix ~torn_seed dev =
  if prefix < 0 || prefix >= Record.boundaries record then
    invalid_arg
      (Printf.sprintf "Image.materialize: boundary %d of %d" prefix
         (Record.boundaries record));
  apply_committed dev record ~prefix;
  apply_torn dev record ~prefix ~torn_seed
