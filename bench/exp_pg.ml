(* PostgreSQL case study (§7.3): Fig. 6 — TPC-C throughput, disk write
   throughput and IOPS for the four storage variants. *)

open Env
module Storage = Msnap_pg.Storage
module Pg = Msnap_pg.Pg
module Tpcc = Msnap_workloads.Workloads.Tpcc

let warehouses = 4
let connections = 8
let txns = 3_000

(* The TPC-C keyspaces are bounded by the scale constants above, so all
   four sprintf key builders become precomputed tables (immutable
   strings, shared across domains); only the ever-growing order /
   order-line / history keys render per insert, into per-domain scratch
   (one allocation: the key itself). Byte-identical to the sprintf
   grammars they replace. *)
let k_wh =
  let t =
    Keyfmt.table warehouses (fun b w ->
        Keyfmt.char b 'w';
        Keyfmt.dec b ~width:4 w)
  in
  fun w -> Array.unsafe_get t w

let k_dist =
  let t =
    Keyfmt.table
      (warehouses * Tpcc.districts_per_warehouse)
      (fun b i ->
        Keyfmt.char b 'w';
        Keyfmt.dec b ~width:4 (i / Tpcc.districts_per_warehouse);
        Keyfmt.lit b "-d";
        Keyfmt.dec b ~width:2 (i mod Tpcc.districts_per_warehouse))
  in
  fun w d -> Array.unsafe_get t ((w * Tpcc.districts_per_warehouse) + d)

let k_cust =
  let per_wh = Tpcc.districts_per_warehouse * Tpcc.customers_per_district in
  let t =
    Keyfmt.table (warehouses * per_wh) (fun b i ->
        Keyfmt.char b 'w';
        Keyfmt.dec b ~width:4 (i / per_wh);
        Keyfmt.lit b "-d";
        Keyfmt.dec b ~width:2 (i mod per_wh / Tpcc.customers_per_district);
        Keyfmt.lit b "-c";
        Keyfmt.dec b ~width:5 (i mod Tpcc.customers_per_district))
  in
  fun w d c ->
    Array.unsafe_get t
      ((w * per_wh) + (d * Tpcc.customers_per_district) + c)

let k_stock =
  let t =
    Keyfmt.table (warehouses * Tpcc.items) (fun b i ->
        Keyfmt.char b 'w';
        Keyfmt.dec b ~width:4 (i / Tpcc.items);
        Keyfmt.lit b "-i";
        Keyfmt.dec b ~width:6 (i mod Tpcc.items))
  in
  fun w i -> Array.unsafe_get t ((w * Tpcc.items) + i)

(* "o%09d-l%02d" *)
let k_order_line oid l =
  let b = Keyfmt.scratch () in
  Keyfmt.char b 'o';
  Keyfmt.dec b ~width:9 oid;
  Keyfmt.lit b "-l";
  Keyfmt.dec b ~width:2 l;
  Keyfmt.str b

(* "%c%09d" *)
let k_counter c id =
  let b = Keyfmt.scratch () in
  Keyfmt.char b c;
  Keyfmt.dec b ~width:9 id;
  Keyfmt.str b

let load db =
  Pg.with_txn db (fun txn ->
      for w = 0 to warehouses - 1 do
        Pg.insert db txn ~table:"warehouse" ~key:(k_wh w) "0";
        for i = 0 to Tpcc.items - 1 do
          Pg.insert db txn ~table:"stock" ~key:(k_stock w i) "100"
        done
      done);
  for w = 0 to warehouses - 1 do
    for d = 0 to Tpcc.districts_per_warehouse - 1 do
      Pg.with_txn db (fun txn ->
          Pg.insert db txn ~table:"district" ~key:(k_dist w d) "1";
          for c = 0 to Tpcc.customers_per_district - 1 do
            Pg.insert db txn ~table:"customer" ~key:(k_cust w d c) "0"
          done)
    done
  done

let parse_int ctx v =
  match int_of_string_opt v with
  | Some i -> i
  | None ->
    failwith
      (Printf.sprintf "corrupt %s: %S (len %d)" ctx v (String.length v))

let incr_field v = string_of_int (parse_int "incr" v + 1)

let run_txn db rng txn_counter =
  match Tpcc.next ~warehouses (Rng.split rng) with
  | Tpcc.New_order { w; d; c; items } ->
    (* Acquire stock row locks in item order: the global lock ordering
       that keeps concurrent new-order transactions deadlock-free. *)
    let items =
      List.sort_uniq (fun (a, _) (b, _) -> compare a b) items
    in
    Pg.with_txn db (fun txn ->
        ignore (Pg.lookup db txn ~table:"warehouse" ~key:(k_wh w));
        ignore (Pg.update_with db txn ~table:"district" ~key:(k_dist w d) incr_field);
        ignore (Pg.lookup db txn ~table:"customer" ~key:(k_cust w d c));
        let oid = !txn_counter in
        incr txn_counter;
        List.iteri
          (fun i (item, qty) ->
            ignore
              (Pg.update_with db txn ~table:"stock" ~key:(k_stock w item)
                 (fun v -> string_of_int (max 10 (parse_int "stock" v - qty))));
            let line =
              let b = Keyfmt.scratch () in
              Keyfmt.lit b "item=";
              Keyfmt.dec b ~width:0 item;
              Keyfmt.lit b " qty=";
              Keyfmt.dec b ~width:0 qty;
              Keyfmt.str b
            in
            Pg.insert db txn ~table:"order_line" ~key:(k_order_line oid i)
              line)
          items;
        let order =
          let b = Keyfmt.scratch () in
          Keyfmt.lit b "w=";
          Keyfmt.dec b ~width:0 w;
          Keyfmt.lit b " d=";
          Keyfmt.dec b ~width:0 d;
          Keyfmt.lit b " c=";
          Keyfmt.dec b ~width:0 c;
          Keyfmt.str b
        in
        Pg.insert db txn ~table:"orders" ~key:(k_counter 'o' oid) order)
  | Tpcc.Payment { w; d; c; amount } ->
    Pg.with_txn db (fun txn ->
        ignore (Pg.update_with db txn ~table:"warehouse" ~key:(k_wh w) incr_field);
        ignore (Pg.update_with db txn ~table:"district" ~key:(k_dist w d) incr_field);
        ignore
          (Pg.update_with db txn ~table:"customer" ~key:(k_cust w d c)
             (fun v -> string_of_int (parse_int "customer" v + amount)));
        let hid = !txn_counter in
        incr txn_counter;
        Pg.insert db txn ~table:"history" ~key:(k_counter 'h' hid)
          (string_of_int amount))
  | Tpcc.Order_status { w; d; c } ->
    Pg.with_txn db (fun txn ->
        ignore (Pg.lookup db txn ~table:"customer" ~key:(k_cust w d c)))
  | Tpcc.Delivery { w; carrier } ->
    Pg.with_txn db (fun txn ->
        for d = 0 to 2 do
          ignore
            (Pg.update_with db txn ~table:"district" ~key:(k_dist w d)
               (fun v -> string_of_int (parse_int "district" v + carrier)))
        done)
  | Tpcc.Stock_level { w; d = _; threshold } ->
    Pg.with_txn db (fun txn ->
        for i = 0 to 9 do
          ignore (Pg.lookup db txn ~table:"stock" ~key:(k_stock w (i * 7)));
          ignore threshold
        done)

(* Thread names, hoisted out of the spawn loop. *)
let conn_names =
  Keyfmt.table connections (fun b c ->
      Keyfmt.lit b "conn";
      Keyfmt.dec b ~width:0 c)

type result = { tps : float; mb_per_s : float; iops : float }

let run_variant mk =
  Sched.run (fun () ->
      let dev, st = mk () in
      let db = Pg.open_db st in
      load db;
      Device.reset_stats dev;
      let t0 = Sched.now () in
      let txn_counter = ref 0 in
      let ts =
        List.init connections (fun c ->
            Sched.spawn ~name:(Array.unsafe_get conn_names c) (fun () ->
                let rng = Rng.create (7_000 + c) in
                for _ = 1 to txns / connections do
                  run_txn db rng txn_counter
                done))
      in
      List.iter Sched.join ts;
      let wall_s = float_of_int (Sched.now () - t0) /. 1e9 in
      let stats = Device.stats dev in
      {
        tps = float_of_int txns /. wall_s;
        mb_per_s = float_of_int stats.Disk.bytes_written /. 1e6 /. wall_s;
        iops = float_of_int stats.Disk.writes /. wall_s;
      })

let fig6 () =
  section "Figure 6: PostgreSQL TPC-C across storage variants";
  let variants =
    [
      ( "ffs",
        fun () ->
          let dev, fs = mk_fs Fs.Ffs in
          (dev, Storage.ffs fs ()) );
      ( "ffs-mmap",
        fun () ->
          let dev, fs = mk_fs Fs.Ffs in
          let phys = Phys.create () in
          Sched.on_exit (fun () -> Phys.dispose phys);
          (dev, Storage.ffs_mmap fs (Aspace.create phys) ()) );
      ( "ffs-mmap-bd",
        fun () ->
          let dev, fs = mk_fs Fs.Ffs in
          let phys = Phys.create () in
          Sched.on_exit (fun () -> Phys.dispose phys);
          (dev, Storage.ffs_mmap_bufdirect fs (Aspace.create phys) ()) );
      ( "memsnap",
        fun () ->
          let dev, k = mk_msnap () in
          (dev, Storage.memsnap k) );
    ]
  in
  let t =
    Tbl.create
      ~title:
        (Printf.sprintf "TPC-C, %d warehouses (scaled), %d connections, %d txns"
           warehouses connections txns)
      ~headers:[ "Variant"; "tps"; "vs ffs"; "disk MB/s"; "IOPS" ]
  in
  (* One cell per storage variant: the four TPC-C runs are independent
     simulations, so they fan out over the -j pool. Forced in list
     order, so the vs-ffs baseline and the row order match the serial
     run exactly. *)
  let cells =
    List.map
      (fun (label, mk) ->
        ( label,
          cell (fun () ->
              Printf.eprintf "  [fig6] %s...\n%!" label;
              run_variant mk) ))
      variants
  in
  let base_tps = ref 0.0 in
  List.iter
    (fun (label, c) ->
      let r = force c in
      if label = "ffs" then base_tps := r.tps;
      Tbl.row t
        [
          label;
          Printf.sprintf "%.0f" r.tps;
          Printf.sprintf "%+.1f%%" (100.0 *. ((r.tps /. !base_tps) -. 1.0));
          Printf.sprintf "%.1f" r.mb_per_s;
          Printf.sprintf "%.0f" r.iops;
        ])
    cells;
  Tbl.note t "paper: mmap variants lose ~25% tps; memsnap gains 1.5% with ~80% less disk write throughput and +26% IOPS";
  print_table t
