(* Host CPU sampler behind `bench/main.exe --sample-profile`. A SIGPROF
   interval timer (process CPU time, ITIMER_PROF) interrupts the run
   every [period] seconds; the handler records the OCaml call stack, and
   [report] prints the source lines that were on top of it most often
   ("self") and the lines that were anywhere in it ("inclusive").

   Bias: OCaml runs signal handlers only at its poll points (allocations,
   function entries, loop back-edges), so a sample lands on the next poll
   point after the tick, not on the instruction the tick interrupted.
   Time spent in C stubs (the device medium's memcpy, Bigarray fills) and
   in loops that never poll is charged to the OCaml line that called or
   contains them. The sampler only reads the stack, so simulated values
   and stdout are unchanged; the handler allocates, so the host GC
   counters in the timings file are not comparable with an unsampled
   run. Serial runs only: the handler runs on whichever domain polls
   first, so samples from a -j pool would not be attributable. *)

let period = 0.001
let max_depth = 256

type line = {
  mutable self : int;
  mutable incl : int;
  mutable seen : int; (* last sample that counted this line inclusively *)
}

let lines : (string, line) Hashtbl.t = Hashtbl.create 1024
let samples = ref 0

let line_of key =
  match Hashtbl.find_opt lines key with
  | Some l -> l
  | None ->
    let l = { self = 0; incl = 0; seen = 0 } in
    Hashtbl.add lines key l;
    l

let own_file = __FILE__

let record _signal =
  match Printexc.backtrace_slots (Printexc.get_callstack max_depth) with
  | None -> ()
  | Some slots ->
    incr samples;
    let top = ref true in
    Array.iter
      (fun slot ->
        match Printexc.Slot.location slot with
        | Some loc when loc.Printexc.filename <> own_file ->
          let key =
            Printf.sprintf "%s:%d %s" loc.Printexc.filename
              loc.Printexc.line_number
              (Option.value (Printexc.Slot.name slot) ~default:"?")
          in
          let l = line_of key in
          if !top then begin
            l.self <- l.self + 1;
            top := false
          end;
          if l.seen <> !samples then begin
            l.incl <- l.incl + 1;
            l.seen <- !samples
          end
        | Some _ | None -> ())
      slots

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle record);
  set_timer period

let stop () =
  set_timer 0.0;
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let report ?(top = 25) () =
  let n = !samples in
  let pct k = 100.0 *. float_of_int k /. float_of_int (max 1 n) in
  let ranked field =
    Hashtbl.fold (fun key l acc -> (field l, key) :: acc) lines []
    |> List.filter (fun (k, _) -> k > 0)
    |> List.sort (fun (a, ka) (b, kb) -> if a <> b then compare b a else compare ka kb)
    |> List.filteri (fun i _ -> i < top)
  in
  let print title field =
    Printf.eprintf "[sample-profile] top %s lines:\n" title;
    List.iter
      (fun (k, key) -> Printf.eprintf "  %6.2f%% %7d  %s\n" (pct k) k key)
      (ranked field)
  in
  Printf.eprintf
    "[sample-profile] %d samples at %.0f us of process CPU time each \
     (charged at OCaml poll points; C stubs count as their caller)\n"
    n (period *. 1e6);
  print "self" (fun l -> l.self);
  print "inclusive" (fun l -> l.incl);
  flush stderr
