module Costs = Msnap_sim.Costs
module Sched = Msnap_sim.Sched
module Sync = Msnap_sim.Sync
module Trace = Msnap_sim.Trace
module Probe = Msnap_sim.Probe
module Rng = Msnap_util.Rng
module Slice = Msnap_util.Slice
module Pool = Msnap_util.Pool

exception Powered_off

(* The persistent medium, stored sparsely off the OCaml heap. A 256 KiB
   chunk is a char Bigarray view of pool slab memory
   ([Pool.alloc_chunk]), taken on the chunk's first write; each chunk
   records which of its 64 4 KiB pages were ever written. The first
   write to a page zeroes only the part of it that the write does not
   cover, and reads of never-written pages (or never-allocated chunks)
   yield zeros, so contents equal a flat zero-initialized buffer.
   Purely host-side: simulated costs do not depend on any of it.

   Payload moves through two copy stubs that check nothing, so every
   offset and length is checked here, before each call, unconditionally
   (not only under [debug_checks]). A copy into a chunk stands for the
   device's DMA and streams around the CPU caches (non-temporal stores,
   [medium_stubs.c]); chunks start on a 64-byte line so a page is whole
   lines. Streaming stores are weakly ordered, hence the rule: no medium
   write returns to its command's caller with streaming stores still in
   flight. Each operation that writes the medium calls [fence] once, at
   its end: [writev] after its commit, [fail_power] after its tears, and
   [poke]. *)
module Medium = struct
  let chunk_bits = 18 (* 256 KiB *)
  let chunk_size = 1 lsl chunk_bits
  let page_bits = 12 (* 4 KiB: 64 pages per chunk *)
  let page_size = 1 lsl page_bits

  type buf = Pool.chunk

  external stub_blit_in : Bytes.t -> int -> buf -> int -> int -> unit
    = "msnap_medium_blit_in"
  [@@noalloc]

  external stub_blit_out : buf -> int -> Bytes.t -> int -> int -> unit
    = "msnap_medium_blit_out"
  [@@noalloc]

  external fence : unit -> unit = "msnap_medium_fence" [@@noalloc]

  (* Page-validity bits: pages 0-31 in [lo], 32-63 in [hi] (an OCaml int
     holds 63 bits, not 64). *)
  type chunk = { data : buf; mutable lo : int; mutable hi : int }

  type t = { m_size : int; chunks : chunk array }

  (* Stands for every never-written chunk; never written itself. *)
  let absent =
    { data = Bigarray.Array1.create Bigarray.char Bigarray.c_layout 0;
      lo = 0; hi = 0 }

  let zeros = Bytes.make page_size '\000'

  let blit_in src spos c coff n =
    if spos < 0 || n < 0 || coff < 0
       || spos > Bytes.length src - n
       || coff > Bigarray.Array1.dim c.data - n
    then invalid_arg "Disk.Medium: copy into chunk out of bounds";
    stub_blit_in src spos c.data coff n

  let blit_out c coff dst dpos n =
    if dpos < 0 || n < 0 || coff < 0
       || dpos > Bytes.length dst - n
       || coff > Bigarray.Array1.dim c.data - n
    then invalid_arg "Disk.Medium: copy out of chunk out of bounds";
    stub_blit_out c.data coff dst dpos n

  let is_valid c p =
    if p < 32 then c.lo land (1 lsl p) <> 0
    else c.hi land (1 lsl (p - 32)) <> 0

  (* Bits [a, b] of a 32-bit half, 0 <= a <= b <= 31. *)
  let bits a b = ((1 lsl (b - a + 1)) - 1) lsl a

  let mark_valid c p0 p1 =
    if p0 < 32 then c.lo <- c.lo lor bits p0 (min p1 31);
    if p1 >= 32 then c.hi <- c.hi lor bits (max p0 32 - 32) (p1 - 32)

  (* Chunks of disposed media, per domain, for the next medium's first
     writes. Every one is kept: a chunk dropped here is lost until exit. *)
  type free = { mutable stack : chunk array; mutable depth : int }

  let free_key : free Domain.DLS.key =
    Domain.DLS.new_key (fun () -> { stack = [||]; depth = 0 })

  let take_chunk () =
    let f = Domain.DLS.get free_key in
    if f.depth = 0 then
      { data = Pool.alloc_chunk chunk_size; lo = 0; hi = 0 }
    else begin
      f.depth <- f.depth - 1;
      let c = f.stack.(f.depth) in
      f.stack.(f.depth) <- absent;
      c.lo <- 0;
      c.hi <- 0;
      c
    end

  let park_chunk c =
    let f = Domain.DLS.get free_key in
    if f.depth = Array.length f.stack then begin
      let stack = Array.make (max 8 (2 * f.depth)) absent in
      Array.blit f.stack 0 stack 0 f.depth;
      f.stack <- stack
    end;
    (* A page-validity bug then reads back as poison, not as zeros. *)
    if !Slice.debug_checks then Bigarray.Array1.fill c.data '\xa5';
    f.stack.(f.depth) <- c;
    f.depth <- f.depth + 1

  let create size =
    { m_size = size;
      chunks = Array.make ((size + chunk_size - 1) / chunk_size) absent }

  let size m = m.m_size

  let check m ~off ~len buf ~pos =
    if off < 0 || len < 0 || pos < 0
       || off > m.m_size - len
       || pos > Bytes.length buf - len
    then
      invalid_arg
        (Printf.sprintf
           "Disk.Medium: range off=%d len=%d (medium %d) pos=%d (buffer %d)"
           off len m.m_size pos (Bytes.length buf))

  let chunk_for_write m i =
    let c = m.chunks.(i) in
    if c != absent then c
    else begin
      let c = take_chunk () in
      m.chunks.(i) <- c;
      c
    end

  (* Write [src[spos, spos+n)] at [coff] of chunk [c], within the chunk.
     Only a first write to a page pays for zeroing, and only the part of
     the page outside [coff, coff+n). *)
  let write_chunk c coff src spos n =
    if n > 0 then begin
      let e = coff + n in
      let p0 = coff lsr page_bits and p1 = (e - 1) lsr page_bits in
      let head = p0 lsl page_bits and tail = (p1 + 1) lsl page_bits in
      if coff > head && not (is_valid c p0) then
        blit_in zeros 0 c head (coff - head);
      if e < tail && not (is_valid c p1) then blit_in zeros 0 c e (tail - e);
      blit_in src spos c coff n;
      mark_valid c p0 p1
    end

  (* Read [n] bytes at [coff] of chunk [c] into [dst[dpos..]]: one copy
     per run of written pages, one zero fill per run of unwritten ones. *)
  let read_chunk c coff dst dpos n =
    let e = coff + n in
    let pos = ref coff in
    while !pos < e do
      let v = is_valid c (!pos lsr page_bits) in
      let stop = ref (min e (((!pos lsr page_bits) + 1) lsl page_bits)) in
      while !stop < e && is_valid c (!stop lsr page_bits) = v do
        stop := min e (!stop + page_size)
      done;
      let len = !stop - !pos in
      if v then blit_out c !pos dst (dpos + !pos - coff) len
      else Bytes.fill dst (dpos + !pos - coff) len '\000';
      pos := !stop
    done

  let write m ~off src ~pos ~len =
    check m ~off ~len src ~pos;
    let o = ref off and e = off + len in
    while !o < e do
      let coff = !o land (chunk_size - 1) in
      let n = min (e - !o) (chunk_size - coff) in
      write_chunk (chunk_for_write m (!o lsr chunk_bits)) coff src
        (pos + !o - off) n;
      o := !o + n
    done

  let read_into m ~off dst ~pos ~len =
    check m ~off ~len dst ~pos;
    let o = ref off and e = off + len in
    while !o < e do
      let coff = !o land (chunk_size - 1) in
      let n = min (e - !o) (chunk_size - coff) in
      read_chunk m.chunks.(!o lsr chunk_bits) coff dst (pos + !o - off) n;
      o := !o + n
    done

  (* Park every materialized chunk for the next medium on this domain.
     Only valid once nothing will read the medium again. *)
  let dispose m =
    Array.iteri
      (fun i c ->
        if c != absent then begin
          m.chunks.(i) <- absent;
          park_chunk c
        end)
      m.chunks
end

type stats = {
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  busy_ns : int;
}

type inflight = {
  segs : (int * Slice.t) list; (* (offset, data), commit order *)
  checksums : int list; (* issue-time content hashes; [] unless debugging *)
  t0 : int;
  dur : int;
  mutable torn : bool;
}

type t = {
  dname : string;
  medium : Medium.t;
  channels : Sync.Semaphore.t;
  mutable powered : bool;
  mutable outages : int; (* [fail_power] calls, for reads in flight *)
  mutable inflight : inflight list;
  mutable recorder : (Record.t * int) option; (* recorder, member index *)
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_bytes_read : int;
  mutable s_bytes_written : int;
  mutable s_busy : int;
}

let create ?(name = "nvme") ~size () =
  let size = Msnap_util.Bits.round_up size Costs.sector in
  {
    dname = name;
    medium = Medium.create size;
    channels = Sync.Semaphore.create Costs.disk_channels;
    powered = true;
    outages = 0;
    inflight = [];
    recorder = None;
    s_reads = 0;
    s_writes = 0;
    s_bytes_read = 0;
    s_bytes_written = 0;
    s_busy = 0;
  }

let size t = Medium.size t.medium

let check_power t = if not t.powered then raise Powered_off

let check_range t off len =
  if off < 0 || len < 0 || off + len > Medium.size t.medium then
    invalid_arg
      (Printf.sprintf "%s: IO out of range (off=%d len=%d size=%d)" t.dname off
         len (Medium.size t.medium))

(* The only payload copy on the write path: slice -> medium, at commit,
   segment by segment in list order. *)
let rec commit_segs m = function
  | [] -> ()
  | (off, s) :: tl ->
    Medium.write m ~off (Slice.buf s) ~pos:(Slice.pos s) ~len:(Slice.length s);
    commit_segs m tl

let verify_checksums t fl =
  if fl.checksums <> [] then
    List.iter2
      (fun (off, s) ck ->
        if Slice.checksum s <> ck then
          invalid_arg
            (Printf.sprintf
               "%s: ownership violation — slice at off=%d len=%d mutated \
                while its write command was in flight"
               t.dname off (Slice.length s)))
      fl.segs fl.checksums

let service t ~dur ~io =
  check_power t;
  Sync.Semaphore.acquire t.channels;
  let finally () = Sync.Semaphore.release t.channels in
  Fun.protect ~finally (fun () ->
      check_power t;
      t.s_busy <- t.s_busy + dur;
      io dur)

(* Trace one command from issue to commit, including any time queued on a
   channel. Queue depth is sampled at issue; args are only computed when
   tracing is on so the disabled path allocates nothing. Host-only. *)
let traced t probe ~bytes io =
  if not (Trace.is_on ()) then io ()
  else begin
    let t0 = Sched.now () in
    let qd =
      Costs.disk_channels - Sync.Semaphore.value t.channels
      + List.length t.inflight
    in
    match io () with
    | r ->
      Trace.complete probe ~dur:(Sched.now () - t0)
        ~args:[ ("dev", Trace.S t.dname); ("bytes", Trace.I bytes);
                ("qd_at_issue", Trace.I qd) ];
      r
    | exception exn ->
      Trace.complete probe ~dur:(Sched.now () - t0)
        ~args:[ ("dev", Trace.S t.dname); ("bytes", Trace.I bytes);
                ("qd_at_issue", Trace.I qd); ("aborted", Trace.I 1) ];
      raise exn
  end

let writev t segs =
  List.iter (fun (off, s) -> check_range t off (Slice.length s)) segs;
  let total = List.fold_left (fun a (_, s) -> a + Slice.length s) 0 segs in
  let dur = Costs.disk_base + Costs.disk_xfer total in
  traced t Probe.disk_write ~bytes:total @@ fun () ->
  service t ~dur ~io:(fun dur ->
      let checksums =
        if !Slice.debug_checks then List.map (fun (_, s) -> Slice.checksum s) segs
        else []
      in
      let fl = { segs; checksums; t0 = Sched.now (); dur; torn = false } in
      t.inflight <- fl :: t.inflight;
      (* Host-only history capture: the snapshot taken here equals the
         commit-time bytes by the slice ownership rule. *)
      let rcmd =
        match t.recorder with
        | None -> None
        | Some (r, member) ->
          Some (r, Record.issued r ~member ~segs ~t0:fl.t0 ~dur)
      in
      Sched.delay dur;
      t.inflight <- List.filter (fun f -> f != fl) t.inflight;
      if fl.torn then raise Powered_off;
      verify_checksums t fl;
      commit_segs t.medium segs;
      Medium.fence ();
      t.s_writes <- t.s_writes + 1;
      t.s_bytes_written <- t.s_bytes_written + total;
      match rcmd with
      | None -> ()
      | Some (r, c) -> Record.committed r c ~now:(Sched.now ()))

let write_slice t ~off s = writev t [ (off, s) ]

let read_into t ~off dst =
  let len = Slice.length dst in
  check_range t off len;
  let dur = Costs.disk_base + Costs.disk_xfer len in
  traced t Probe.disk_read ~bytes:len @@ fun () ->
  service t ~dur ~io:(fun dur ->
      let outages = t.outages in
      Sched.delay dur;
      (* An outage during the transfer fails the read even if power is
         back by the time it would have completed. *)
      if t.outages <> outages then raise Powered_off;
      t.s_reads <- t.s_reads + 1;
      t.s_bytes_read <- t.s_bytes_read + len;
      Medium.read_into t.medium ~off (Slice.buf dst) ~pos:(Slice.pos dst) ~len)

let flush t =
  (* Draining the queue = acquiring every channel once. *)
  check_power t;
  traced t Probe.disk_flush ~bytes:0 @@ fun () ->
  let n = Costs.disk_channels in
  for _ = 1 to n do
    Sync.Semaphore.acquire t.channels
  done;
  for _ = 1 to n do
    Sync.Semaphore.release t.channels
  done;
  (* The drain is a durable-prefix boundary: this disk's queue is empty
     (no scheduling point separates the releases from here). *)
  match t.recorder with
  | None -> ()
  | Some (r, member) -> Record.flushed r ~member ~now:(Sched.now ())

(* The torn-sector budget of one in-flight command: whole sectors of a
   prefix whose length reflects how far the transfer had progressed,
   perturbed deterministically by the rng. Shared with
   [Msnap_faults.Image] so the offline reconstruction of a crash point
   can never drift from the live [fail_power] semantics. *)
let torn_sector_budget ~rng ~elapsed ~dur ~total_sectors =
  let frac =
    if dur <= 0 then 1.0
    else Float.min 1.0 (float_of_int elapsed /. float_of_int dur)
  in
  let base = int_of_float (frac *. float_of_int total_sectors) in
  let jitter = if total_sectors > 0 then Rng.int rng (total_sectors + 1) else 0 in
  min total_sectors (min base jitter + (max base jitter - min base jitter) / 2)

(* Tear each in-flight command: commit whole sectors of a prefix whose
   length reflects how far the transfer had progressed, perturbed
   deterministically by the seed. The ownership rule guarantees the
   slices still hold their issue-time bytes, so tearing from them here
   equals tearing from an issue-time snapshot. *)
let fail_power t ~torn_seed =
  t.powered <- false;
  t.outages <- t.outages + 1;
  let rng = Rng.create (torn_seed lxor 0x5EED) in
  let tear fl =
    fl.torn <- true;
    verify_checksums t fl;
    let elapsed = Sched.now () - fl.t0 in
    let total_sectors =
      List.fold_left
        (fun a (_, s) ->
          a + ((Slice.length s + Costs.sector - 1) / Costs.sector))
        0 fl.segs
    in
    let committed =
      torn_sector_budget ~rng ~elapsed ~dur:fl.dur ~total_sectors
    in
    (* Commit the first [committed] sectors across segments in order. *)
    let remaining = ref committed in
    List.iter
      (fun (off, s) ->
        let len = Slice.length s in
        let sectors = (len + Costs.sector - 1) / Costs.sector in
        let take = min sectors !remaining in
        remaining := !remaining - take;
        if take > 0 then begin
          let nbytes = min len (take * Costs.sector) in
          Medium.write t.medium ~off (Slice.buf s) ~pos:(Slice.pos s)
            ~len:nbytes
        end)
      fl.segs
  in
  List.iter tear t.inflight;
  Medium.fence ();
  t.inflight <- []

let restore_power t = t.powered <- true

let stats t =
  {
    reads = t.s_reads;
    writes = t.s_writes;
    bytes_read = t.s_bytes_read;
    bytes_written = t.s_bytes_written;
    busy_ns = t.s_busy;
  }

let reset_stats t =
  t.s_reads <- 0;
  t.s_writes <- 0;
  t.s_bytes_read <- 0;
  t.s_bytes_written <- 0;
  t.s_busy <- 0

(* End-of-run teardown: the medium's chunks go to this domain's free
   stack so the next simulated machine reuses them. Only valid once the
   device is idle and nothing will read it again. *)
let dispose t = Medium.dispose t.medium

(* --- crash-schedule capture (host-only) --- *)

let attach_record t r =
  if t.recorder <> None then invalid_arg (t.dname ^ ": recorder already attached");
  let member = Record.register r (fun ~torn_seed -> fail_power t ~torn_seed) in
  t.recorder <- Some (r, member)

let detach_record t = t.recorder <- None

(* Raw media access for crash-image reconstruction and comparison: no
   power check, no charge, no stats — this is the test harness looking
   at the platters, not a simulated IO. *)
let peek t ~off ~len =
  let out = Bytes.create len in
  Medium.read_into t.medium ~off out ~pos:0 ~len;
  out

let poke t ~off ~data =
  Medium.write t.medium ~off data ~pos:0 ~len:(Bytes.length data);
  Medium.fence ()
