type arg = I of int | S of string
type args = (string * arg) list
type flow_phase = Flow_start | Flow_step | Flow_end

(* AoS view, materialized only by {!events} for tests and tools; the
   buffer itself is structs-of-arrays (below) so the emit path writes
   six unboxed column slots instead of allocating a record. *)
type event = {
  ev_probe : Probe.t;
  ev_ts : int;
  ev_dur : int; (* -1 instant *)
  ev_tid : int;
  ev_tname : string;
  ev_args : args;
  ev_flow : (int * flow_phase) option;
}

(* Flow links are packed into one int column: 0 for none, else
   [id * 4 + phase + 1] (phase codes 1..3 in the low bits). *)
let pack_flow = function
  | None -> 0
  | Some (id, phase) ->
    let ph =
      match phase with Flow_start -> 1 | Flow_step -> 2 | Flow_end -> 3
    in
    (id * 4) + ph

let unpack_flow packed =
  if packed = 0 then None
  else
    let phase =
      match packed land 3 with
      | 1 -> Flow_start
      | 2 -> Flow_step
      | _ -> Flow_end
    in
    Some (packed lsr 2, phase)

(* A recording scope: the trace buffer, its per-probe summary, and the
   timeline the scope's runs are laid out on. {!collect} installs one
   for the extent of its callback; every per-probe column is indexed by
   [Probe.id] and grown by [ensure_stats]. *)
type scope = {
  enabled : bool;
  verbose : bool; (* only ever true in a recording scope *)
  limit : int;
  (* Event buffer as parallel columns, grown together. The args column
     is almost always the immediate [[]]; flow is packed (see above). *)
  mutable b_probe : int array; (* Probe.id *)
  mutable b_ts : int array;
  mutable b_dur : int array;
  mutable b_tid : int array;
  mutable b_args : args array;
  (* Fast path for the overwhelmingly common single-int argument
     (e.g. ("bytes", I n)): two flat columns instead of a boxed
     cons/tuple/I chain per event. [""] = none; the key is expected to
     be a shared literal, so storing it allocates nothing. *)
  mutable b_ak : string array;
  mutable b_av : int array;
  mutable b_flow : int array;
  mutable len : int;
  mutable dropped : int;
  mutable next_flow : int;
  (* Timeline start of the current or next run: what the scope's
     finished runs and spliced dumps have consumed so far. *)
  mutable base : int;
  (* First-seen name per tid, registered when an event is stored. *)
  tnames : (int, string) Hashtbl.t;
  (* Per-probe running totals, kept at emit time so the summary stays
     exact even when the buffer hits its cap. *)
  mutable st_count : int array;
  mutable st_total : int array;
  mutable st_max : int array;
  (* The summaries of spliced dumps, merged (see [merge_summary]). *)
  mutable spliced : (string * string * int * int * int) list;
}

let fresh ~enabled ~verbose ~limit =
  {
    enabled;
    verbose = enabled && verbose;
    limit;
    b_probe = [||];
    b_ts = [||];
    b_dur = [||];
    b_tid = [||];
    b_args = [||];
    b_ak = [||];
    b_av = [||];
    b_flow = [||];
    len = 0;
    dropped = 0;
    next_flow = 0;
    base = 0;
    tnames = Hashtbl.create 32;
    st_count = [||];
    st_total = [||];
    st_max = [||];
    spliced = [];
  }

(* The calling domain's innermost scope; outside every {!collect}, a
   non-recording one. *)
let scope_key : scope Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fresh ~enabled:false ~verbose:false ~limit:0)

let scope () = Domain.DLS.get scope_key

(* Injected by Sched at module-init time; identity fallbacks keep Trace
   usable (as a no-op timeline) outside any simulation. The thread
   source is split into id and name halves so the per-event call
   returns an unboxed int instead of a fresh tuple; the name half runs
   only the first time a tid stores an event. *)
let time_source : (unit -> int) ref = ref (fun () -> 0)
let thread_id_source : (unit -> int) ref = ref (fun () -> -1)
let thread_name_source : (unit -> string) ref = ref (fun () -> "host")
let set_time_source f = time_source := f

let set_thread_source ~tid ~tname =
  thread_id_source := tid;
  thread_name_source := tname

let is_on () = (scope ()).enabled
let verbose () = (scope ()).verbose

(* The current instant on the scope's timeline. *)
let now s = s.base + !time_source ()

let advance ns =
  let s = scope () in
  if s.enabled then s.base <- s.base + ns

let new_flow () =
  let s = scope () in
  s.next_flow <- s.next_flow + 1;
  s.next_flow

(* The one grow-on-demand path for every per-probe trace column: each is
   extended to cover all probes interned so far, contents kept. *)
let ensure_stats s =
  let n = Probe.count () in
  let grow a zero =
    if Array.length a >= n then a
    else begin
      let na = Array.make n zero in
      Array.blit a 0 na 0 (Array.length a);
      na
    end
  in
  s.st_count <- grow s.st_count 0;
  s.st_total <- grow s.st_total 0;
  s.st_max <- grow s.st_max 0

let grow_buf s =
  let cap = max 1024 (min s.limit (2 * Array.length s.b_probe)) in
  let grow_int a =
    let na = Array.make cap 0 in
    Array.blit a 0 na 0 s.len;
    na
  in
  let na = Array.make cap [] in
  Array.blit s.b_args 0 na 0 s.len;
  let nk = Array.make cap "" in
  Array.blit s.b_ak 0 nk 0 s.len;
  s.b_probe <- grow_int s.b_probe;
  s.b_ts <- grow_int s.b_ts;
  s.b_dur <- grow_int s.b_dur;
  s.b_tid <- grow_int s.b_tid;
  s.b_args <- na;
  s.b_ak <- nk;
  s.b_av <- grow_int s.b_av;
  s.b_flow <- grow_int s.b_flow

let emit s ?(args = []) ?(argi = ("", 0)) ?flow probe ~ts ~dur =
  let pid = Probe.id probe in
  if pid >= Array.length s.st_count then ensure_stats s;
  s.st_count.(pid) <- s.st_count.(pid) + 1;
  if dur > 0 then begin
    s.st_total.(pid) <- s.st_total.(pid) + dur;
    if dur > s.st_max.(pid) then s.st_max.(pid) <- dur
  end;
  if s.len >= s.limit then s.dropped <- s.dropped + 1
  else begin
    if s.len >= Array.length s.b_probe then grow_buf s;
    let i = s.len in
    s.len <- i + 1;
    let tid = !thread_id_source () in
    s.b_probe.(i) <- pid;
    s.b_ts.(i) <- ts;
    s.b_dur.(i) <- dur;
    s.b_tid.(i) <- tid;
    s.b_args.(i) <- args;
    s.b_ak.(i) <- fst argi;
    s.b_av.(i) <- snd argi;
    s.b_flow.(i) <- pack_flow flow;
    if not (Hashtbl.mem s.tnames tid) then
      Hashtbl.add s.tnames tid (!thread_name_source ())
  end

let instant ?args ?argi ?flow probe =
  let s = scope () in
  if s.enabled then emit s ?args ?argi ?flow probe ~ts:(now s) ~dur:(-1)

let complete ?args ?argi ?flow probe ~dur =
  let s = scope () in
  if s.enabled then emit s ?args ?argi ?flow probe ~ts:(now s - dur) ~dur

let with_span ?args ?argi ?flow probe f =
  let s = scope () in
  if not s.enabled then f ()
  else begin
    let t0 = now s in
    match f () with
    | r ->
      emit s ?args ?argi ?flow probe ~ts:t0 ~dur:(now s - t0);
      r
    | exception exn ->
      emit s ?args ?argi ?flow probe ~ts:t0 ~dur:(now s - t0);
      raise exn
  end

type dump = {
  d_count : int;
  d_dropped : int;
  d_summary : (string * string * int * int * int) list;
  d_probe : int array;
  d_ts : int array;
  d_dur : int array;
  d_tid : int array;
  d_args : args array;
  d_ak : string array;
  d_av : int array;
  d_flow : int array;
  d_tnames : (int, string) Hashtbl.t;
  d_span : int;
  d_flows : int;
}

(* Per-probe summaries are sorted by (subsystem, name), which is unique
   per probe: merge them as sorted lists, adding counts and totals. *)
let rec merge_summary a b =
  match (a, b) with
  | [], l | l, [] -> l
  | ((sa, na, ca, ta, ma) as x) :: ra, ((sb, nb, cb, tb, mb) as y) :: rb ->
    let c = compare (sa, na) (sb, nb) in
    if c < 0 then x :: merge_summary ra b
    else if c > 0 then y :: merge_summary a rb
    else (sa, na, ca + cb, ta + tb, max ma mb) :: merge_summary ra rb

(* The scope is finished: its columns move into the dump without
   copying (a capped buffer is ~48 MB of arrays). Consumers read only
   the first [d_count] slots. *)
let finish s =
  let own = ref [] in
  for i = Array.length s.st_count - 1 downto 0 do
    if s.st_count.(i) > 0 then begin
      let p = Probe.of_id i in
      own :=
        ( Probe.subsystem_name (Probe.subsystem p),
          Probe.name p,
          s.st_count.(i),
          s.st_total.(i),
          s.st_max.(i) )
        :: !own
    end
  done;
  {
    d_count = s.len;
    d_dropped = s.dropped;
    d_summary = merge_summary (List.sort compare !own) s.spliced;
    d_probe = s.b_probe;
    d_ts = s.b_ts;
    d_dur = s.b_dur;
    d_tid = s.b_tid;
    d_args = s.b_args;
    d_ak = s.b_ak;
    d_av = s.b_av;
    d_flow = s.b_flow;
    d_tnames = s.tnames;
    d_span = s.base;
    d_flows = s.next_flow;
  }

let in_scope s f =
  let outer = scope () in
  Domain.DLS.set scope_key s;
  let v = Fun.protect ~finally:(fun () -> Domain.DLS.set scope_key outer) f in
  (v, finish s)

let collect ?(limit = 1 lsl 20) ?(verbose = false) f =
  in_scope (fresh ~enabled:true ~verbose ~limit) f

type config = { c_enabled : bool; c_verbose : bool; c_limit : int }

let config () =
  let s = scope () in
  { c_enabled = s.enabled; c_verbose = s.verbose; c_limit = s.limit }

let collect_as c f =
  in_scope (fresh ~enabled:c.c_enabled ~verbose:c.c_verbose ~limit:c.c_limit) f

let append d =
  let s = scope () in
  if s.enabled then begin
    s.spliced <- merge_summary s.spliced d.d_summary;
    s.dropped <- s.dropped + d.d_dropped;
    (* Flow ids are only unique within a scope; rebase the dump's ids
       past everything already issued here. *)
    let fbase = s.next_flow in
    s.next_flow <- s.next_flow + d.d_flows;
    let shift = s.base in
    for i = 0 to d.d_count - 1 do
      if s.len >= s.limit then s.dropped <- s.dropped + 1
      else begin
        if s.len >= Array.length s.b_probe then grow_buf s;
        let j = s.len in
        s.len <- j + 1;
        let tid = d.d_tid.(i) in
        s.b_probe.(j) <- d.d_probe.(i);
        s.b_ts.(j) <- d.d_ts.(i) + shift;
        s.b_dur.(j) <- d.d_dur.(i);
        s.b_tid.(j) <- tid;
        s.b_args.(j) <- d.d_args.(i);
        s.b_ak.(j) <- d.d_ak.(i);
        s.b_av.(j) <- d.d_av.(i);
        (let packed = d.d_flow.(i) in
         s.b_flow.(j) <-
           (if packed = 0 then 0
            else (((packed lsr 2) + fbase) * 4) lor (packed land 3)));
        if not (Hashtbl.mem s.tnames tid) then
          Hashtbl.add s.tnames tid
            (try Hashtbl.find d.d_tnames tid with Not_found -> "?")
      end
    done;
    s.base <- s.base + d.d_span
  end

let tname d tid = try Hashtbl.find d.d_tnames tid with Not_found -> "?"

let events d =
  Array.init d.d_count (fun i ->
      {
        ev_probe = Probe.of_id d.d_probe.(i);
        ev_ts = d.d_ts.(i);
        ev_dur = d.d_dur.(i);
        ev_tid = d.d_tid.(i);
        ev_tname = tname d d.d_tid.(i);
        ev_args =
          (if d.d_ak.(i) <> "" then [ (d.d_ak.(i), I d.d_av.(i)) ]
           else d.d_args.(i));
        ev_flow = unpack_flow d.d_flow.(i);
      })

(* ---- Chrome trace_event export ---------------------------------------- *)

let json_escape b str =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    str

let add_str b s =
  Buffer.add_char b '"';
  json_escape b s;
  Buffer.add_char b '"'

(* Decimal emission without [string_of_int]/[sprintf]: at ~4 records per
   event the formatted strings dominated export allocation. *)
let add_int b n =
  if n = 0 then Buffer.add_char b '0'
  else begin
    let n = if n < 0 then (Buffer.add_char b '-'; -n) else n in
    let rec go n =
      if n > 0 then begin
        go (n / 10);
        Buffer.add_char b (Char.chr (Char.code '0' + (n mod 10)))
      end
    in
    go n
  end

(* ns -> Chrome's microsecond floats, ns precision in the fraction *)
let add_us b ns =
  add_int b (ns / 1000);
  Buffer.add_char b '.';
  let f = abs ns mod 1000 in
  Buffer.add_char b (Char.chr (Char.code '0' + (f / 100)));
  Buffer.add_char b (Char.chr (Char.code '0' + (f / 10 mod 10)));
  Buffer.add_char b (Char.chr (Char.code '0' + (f mod 10)))

let add_args b args =
  Buffer.add_string b "{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_str b k;
      Buffer.add_char b ':';
      match v with
      | I n -> add_int b n
      | S s -> add_str b s)
    args;
  Buffer.add_string b "}"

let add_common b ~name ~cat ~ph ~ts ~tid =
  Buffer.add_string b "{\"name\":";
  add_str b name;
  Buffer.add_string b ",\"cat\":";
  add_str b cat;
  Buffer.add_string b ",\"ph\":\"";
  Buffer.add_string b ph;
  Buffer.add_string b "\",\"ts\":";
  add_us b ts;
  Buffer.add_string b ",\"pid\":1,\"tid\":";
  add_int b tid

let export_json oc d =
  let b = Buffer.create (1 lsl 16) in
  let first = ref true in
  let next () =
    if !first then first := false else Buffer.add_string b ",\n  ";
    if Buffer.length b > 1 lsl 15 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  in
  Buffer.add_string b "{\"traceEvents\":[\n  ";
  (* Thread-name metadata: one per distinct tid, in first-event order. *)
  let named = Hashtbl.create 32 in
  for i = 0 to d.d_count - 1 do
    let tid = d.d_tid.(i) in
    if not (Hashtbl.mem named tid) then begin
      Hashtbl.add named tid ();
      next ();
      add_common b ~name:"thread_name" ~cat:"__metadata" ~ph:"M" ~ts:0 ~tid;
      Buffer.add_string b ",\"args\":{\"name\":";
      add_str b (Printf.sprintf "%s (%d)" (tname d tid) tid);
      Buffer.add_string b "}}"
    end
  done;
  (* Everything before "ts" is constant per (probe, phase): name, cat
     and ph need escaping exactly once, then each record starts with a
     single memcpy of the cached prefix. At ~1M+ records per capped
     trace this halves the encoder's work. *)
  let prefixes = Hashtbl.create 256 in
  let prefix_of pid ph_code ph =
    let key = (pid * 4) + ph_code in
    match Hashtbl.find prefixes key with
    | p -> p
    | exception Not_found ->
      let probe = Probe.of_id pid in
      let pb = Buffer.create 64 in
      Buffer.add_string pb "{\"name\":";
      add_str pb (Probe.name probe);
      Buffer.add_string pb ",\"cat\":";
      add_str pb (Probe.subsystem_name (Probe.subsystem probe));
      Buffer.add_string pb ",\"ph\":\"";
      Buffer.add_string pb ph;
      Buffer.add_string pb "\",\"ts\":";
      let p = Buffer.contents pb in
      Hashtbl.add prefixes key p;
      p
  in
  let flow_prefix ph =
    "{\"name\":\"ucheckpoint\",\"cat\":\"msnap\",\"ph\":\"" ^ ph
    ^ "\",\"ts\":"
  in
  let flow_s = flow_prefix "s"
  and flow_t = flow_prefix "t"
  and flow_f = flow_prefix "f" in
  for i = 0 to d.d_count - 1 do
    let pid = d.d_probe.(i) in
    let ts = d.d_ts.(i) and dur = d.d_dur.(i) and tid = d.d_tid.(i) in
    next ();
    let finish_common () =
      Buffer.add_string b ",\"pid\":1,\"tid\":";
      add_int b tid
    in
    (match dur with
    | -1 ->
      Buffer.add_string b (prefix_of pid 1 "i");
      add_us b ts;
      finish_common ();
      Buffer.add_string b ",\"s\":\"t\""
    | dur ->
      Buffer.add_string b (prefix_of pid 0 "X");
      add_us b ts;
      finish_common ();
      Buffer.add_string b ",\"dur\":";
      add_us b dur);
    let ak = d.d_ak.(i) in
    if ak <> "" then begin
      (* column fast path: same bytes as [add_args [(ak, I v)]] *)
      Buffer.add_string b ",\"args\":{";
      add_str b ak;
      Buffer.add_char b ':';
      add_int b d.d_av.(i);
      Buffer.add_string b "}"
    end
    else begin
      let args = d.d_args.(i) in
      if args <> [] then begin
        Buffer.add_string b ",\"args\":";
        add_args b args
      end
    end;
    Buffer.add_string b "}";
    (* Flow link riding on this event: a separate s/t/f record at the
       same instant, bound to the enclosing slice. All records of one
       flow share name/cat/id — that is what Chrome draws arrows
       between. *)
    let packed = d.d_flow.(i) in
    if packed <> 0 then begin
      let id = packed lsr 2 in
      let ph = packed land 3 in
      let ts = if dur > 0 then ts + dur else ts in
      next ();
      Buffer.add_string b
        (match ph with 1 -> flow_s | 2 -> flow_t | _ -> flow_f);
      add_us b ts;
      Buffer.add_string b ",\"pid\":1,\"tid\":";
      add_int b tid;
      Buffer.add_string b ",\"id\":";
      add_int b id;
      if ph <> 1 && ph <> 2 then Buffer.add_string b ",\"bp\":\"e\"";
      Buffer.add_string b "}"
    end
  done;
  Buffer.add_string b "\n],\n";
  Buffer.add_string b "\"displayTimeUnit\":\"ns\",\n";
  Buffer.add_string b
    (Printf.sprintf
       "\"otherData\":{\"tool\":\"memsnap-sim\",\"events\":%d,\"dropped\":%d}}\n"
       d.d_count d.d_dropped);
  Buffer.output_buffer oc b

let render_summary d =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "subsystem  probe                        count    total(us)      max(us)\n";
  let last_sub = ref "" in
  List.iter
    (fun (sub, name, count, total, max_ns) ->
      if sub <> !last_sub && !last_sub <> "" then Buffer.add_char b '\n';
      last_sub := sub;
      Buffer.add_string b
        (Printf.sprintf "%-10s %-26s %7d %12.3f %12.3f\n" sub name count
           (float_of_int total /. 1e3)
           (float_of_int max_ns /. 1e3)))
    d.d_summary;
  if d.d_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "(%d events dropped past the buffer cap)\n" d.d_dropped);
  Buffer.contents b
