module Msnap = Msnap_core.Msnap
module Metrics = Msnap_sim.Metrics
module Probe = Msnap_sim.Probe

type t = { k : Msnap.t; md : Msnap.md }

let create k ~db_name ~max_pages =
  let md =
    Msnap.open_region k ~name:("sqlite/" ^ db_name)
      ~len:(max_pages * Page.size) ()
  in
  { k; md }

let read_page t pgno =
  if pgno * Page.size > Msnap.length t.md then None
  else begin
    (* Pooled output buffer (the pager cache takes ownership);
       [read_into] carries the same charges as [read]. *)
    let b = Msnap_util.Pool.alloc Page.size in
    Msnap.read_into t.k t.md ~off:((pgno - 1) * Page.size) b ~pos:0
      ~len:Page.size;
    Some b
  end

let commit t pages =
  Metrics.timed Probe.db_memsnap (fun () ->
      List.iter
        (fun (pgno, b) -> Msnap.write t.k t.md ~off:((pgno - 1) * Page.size) b)
        pages;
      ignore (Msnap.persist t.k ~region:t.md ()))

let backend t =
  { Pager.b_read_page = read_page t; b_commit = commit t }

let region t = t.md
