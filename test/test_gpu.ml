(* Tests for the SIMT timing simulator. *)

module Label = Repro_gpu.Label
module Instr = Repro_gpu.Instr
module Coalesce = Repro_gpu.Coalesce
module Cache = Repro_gpu.Cache
module Config = Repro_gpu.Config
module Stats = Repro_gpu.Stats
module Mem_path = Repro_gpu.Mem_path
module Trace = Repro_gpu.Trace
module Warp_ctx = Repro_gpu.Warp_ctx
module Sm = Repro_gpu.Sm
module Device = Repro_gpu.Device
module Telemetry = Repro_gpu.Telemetry
module Page_store = Repro_mem.Page_store

let check = Alcotest.check

(* --- labels --------------------------------------------------------- *)

let test_label_indexing () =
  List.iter
    (fun l -> check Alcotest.bool "roundtrip" true (Label.of_index (Label.to_index l) = l))
    Label.all;
  check Alcotest.int "count" (List.length Label.all) Label.count

(* --- instructions ---------------------------------------------------- *)

let test_instr_classes () =
  let load = Instr.load ~label:Label.Body [| 0; 32 |] in
  check Alcotest.bool "load is mem" true (Instr.class_of load = `Mem);
  check Alcotest.int "load active" 2 load.Instr.active;
  check Alcotest.bool "load blocks" true load.Instr.blocking;
  let c = Instr.compute ~n:5 ~label:Label.Body 4 in
  check Alcotest.int "compute expands" 5 (Instr.instruction_count c);
  check Alcotest.bool "compute class" true (Instr.class_of c = `Compute);
  check Alcotest.bool "call is ctrl" true
    (Instr.class_of (Instr.call_indirect ~label:Label.Call 8) = `Ctrl);
  check Alcotest.bool "const load is mem" true
    (Instr.class_of (Instr.const_load ~label:Label.Const_indirect 8) = `Mem);
  Alcotest.check_raises "empty load" (Invalid_argument "Instr.load: no active lanes")
    (fun () -> ignore (Instr.load ~label:Label.Body [||]))

(* --- coalescer -------------------------------------------------------- *)

let test_coalesce_basic () =
  check Alcotest.int "same sector" 1 (Coalesce.transaction_count [| 0; 8; 16; 31 |]);
  check Alcotest.int "two sectors" 2 (Coalesce.transaction_count [| 0; 32 |]);
  check Alcotest.int "fully diverged" 32
    (Coalesce.transaction_count (Array.init 32 (fun i -> i * 128)));
  check (Alcotest.array Alcotest.int) "sorted sectors" [| 0; 4 |]
    (Coalesce.sectors [| 128; 0; 130 |]);
  (* The buffer coalescer checks its ranges once, up front. *)
  let oob = Invalid_argument "Coalesce.sectors_into: range out of bounds" in
  Alcotest.check_raises "lanes past the arena" oob (fun () ->
      ignore (Coalesce.sectors_into ~buf:(Array.make 4 0) ~at:0 [| 0; 8 |] ~off:1 ~len:2));
  Alcotest.check_raises "buffer too short" oob (fun () ->
      ignore (Coalesce.sectors_into ~buf:(Array.make 2 0) ~at:1 [| 0; 64 |] ~off:0 ~len:2))

let prop_coalesce_bounds =
  QCheck.Test.make ~name:"coalescer bounds: 1..lanes transactions" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 32) (int_bound 100_000))
    (fun addrs ->
      let n = Coalesce.transaction_count (Array.of_list addrs) in
      n >= 1 && n <= List.length addrs)

(* The sealing coalescer must agree exactly with the naive reference
   (sorted distinct sectors) for any lane count, duplicate pattern and
   ordering, at any arena offset and destination offset, tag bits
   included. *)
let prop_coalesce_scratch_equiv =
  QCheck.Test.make ~name:"scratch coalescer matches naive reference" ~count:500
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 32) (int_bound 100_000))
        (int_bound 8) (int_bound 40))
    (fun (addrs, pad, tag) ->
      let tagged =
        List.mapi
          (fun i a -> if i mod 3 = 0 then Repro_mem.Vaddr.with_tag a ~tag else a)
          addrs
      in
      let len = List.length addrs in
      (* Embed the lane addresses at a nonzero arena offset. *)
      let arena = Array.make (pad + len) 0 in
      List.iteri (fun i a -> arena.(pad + i) <- a) tagged;
      let buf = Array.make (pad + len) (-1) in
      let n = Coalesce.sectors_into ~buf ~at:pad arena ~off:pad ~len in
      Array.sub buf pad n = Coalesce.sectors (Array.of_list addrs)
      && Array.for_all (fun x -> x = -1) (Array.sub buf 0 pad))

(* --- cache ------------------------------------------------------------ *)

let small_geom = Cache.geometry ~size_bytes:1024 ~line_bytes:128 ~ways:2
(* 4 sets x 2 ways x 4 sectors *)

let test_cache_hit_after_miss () =
  let c = Cache.create small_geom in
  check Alcotest.bool "first is miss" true (Cache.access c ~sector:0 = `Miss);
  check Alcotest.bool "second is hit" true (Cache.access c ~sector:0 = `Hit)

let test_cache_sector_granularity () =
  let c = Cache.create small_geom in
  ignore (Cache.access c ~sector:0);
  (* Same line (sectors 0-3), different sector: line present, sector miss. *)
  check Alcotest.bool "sector miss on resident line" true (Cache.access c ~sector:1 = `Miss);
  check Alcotest.bool "then hits" true (Cache.access c ~sector:1 = `Hit);
  check Alcotest.bool "first sector still valid" true (Cache.probe c ~sector:0)

let test_cache_lru_eviction () =
  let c = Cache.create small_geom in
  (* Three lines mapping to set 0 (line index mod 4 = 0): lines 0, 4, 8. *)
  let sector_of_line l = l * 4 in
  ignore (Cache.access c ~sector:(sector_of_line 0));
  ignore (Cache.access c ~sector:(sector_of_line 4));
  ignore (Cache.access c ~sector:(sector_of_line 0)); (* refresh line 0 *)
  ignore (Cache.access c ~sector:(sector_of_line 8)); (* evicts line 4 *)
  check Alcotest.bool "line 0 kept" true (Cache.probe c ~sector:(sector_of_line 0));
  check Alcotest.bool "line 4 evicted" false (Cache.probe c ~sector:(sector_of_line 4));
  check Alcotest.bool "line 8 resident" true (Cache.probe c ~sector:(sector_of_line 8))

let test_cache_flush () =
  let c = Cache.create small_geom in
  ignore (Cache.access c ~sector:5);
  Cache.flush c;
  check Alcotest.bool "flushed" false (Cache.probe c ~sector:5)

let test_cache_geometry_validation () =
  Alcotest.check_raises "non power of two sets"
    (Invalid_argument "Cache.geometry: the number of sets must be a power of two")
    (fun () -> ignore (Cache.geometry ~size_bytes:(3 * 128 * 2) ~line_bytes:128 ~ways:2))

let prop_cache_hits_bounded =
  QCheck.Test.make ~name:"cache never reports more hits than accesses" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_bound 64))
    (fun sectors ->
      let c = Cache.create small_geom in
      let hits =
        List.fold_left
          (fun acc s -> match Cache.access c ~sector:s with `Hit -> acc + 1 | `Miss -> acc)
          0 sectors
      in
      hits < List.length sectors (* the first access is always a miss *))

(* --- mem path ------------------------------------------------------- *)

let cfg = Config.default

(* Replay takes sealed traces: coalesced, and interned through one pool
   as a device launch seals them. *)
let seal_all traces =
  let pool = Trace.Intern.create () in
  Array.map (Trace.Intern.seal pool) traces

(* One warp per address list, each a chain of blocking single-address
   loads; warp [i] runs on SM [i]. *)
let load_warps warps =
  seal_all
    (Array.of_list
       (List.map
          (fun loads ->
            let t = Trace.create () in
            List.iter
              (fun addrs ->
                ignore (Trace.emit_load t ~label:Label.Body ~blocking:true addrs))
              loads;
            t)
          warps))

let replay ?(mp = Mem_path.create cfg) ?(stats = Stats.create ()) warps =
  Sm.run_fused cfg mp ~stats ~traces:(load_warps warps)

let test_mem_path_latencies () =
  let t_miss = replay [ [ [| 0 |] ] ] in
  let stats = Stats.create () in
  let t_both = replay ~stats [ [ [| 0 |]; [| 0 |] ] ] in
  check Alcotest.bool "miss goes to DRAM" true
    (t_miss >= float_of_int (cfg.Config.l1_latency + cfg.Config.l2_latency + cfg.Config.dram_latency));
  check Alcotest.bool "hit is L1-latency fast" true
    (t_both -. t_miss < float_of_int (cfg.Config.l1_latency + 5));
  check Alcotest.int "one transaction each" 2 (Stats.load_transactions stats);
  check Alcotest.int "one l1 hit" 1 (Stats.l1_accesses stats - 1);
  check Alcotest.bool "l1 rate 50%" true (abs_float (Stats.l1_hit_rate stats -. 0.5) < 1e-9)

let test_mem_path_l1_private_per_sm () =
  let mp = Mem_path.create cfg in
  ignore (replay ~mp [ [ [| 0 |] ] ]);
  check Alcotest.bool "sm0 has it" true (Mem_path.l1_probe mp ~sm:0 ~sector:0);
  check Alcotest.bool "sm1 does not" false (Mem_path.l1_probe mp ~sm:1 ~sector:0)

let test_mem_path_bandwidth_serializes () =
  let diverged = Array.init 32 (fun i -> i * 4096) in
  let diverged2 = Array.init 32 (fun i -> (i + 64) * 4096) in
  let t1 = replay [ [ diverged ] ] in
  let stats = Stats.create () in
  let t2 = replay ~stats [ [ diverged ]; [ diverged2 ] ] in
  (* Both warps issue at cycle 0 on different SMs and miss to DRAM;
     shared DRAM bandwidth must push the second warp's completion past
     the first's. *)
  check Alcotest.bool "shared dram contention" true (t2 > t1);
  check Alcotest.int "dram sectors (64B fills)" 128 (Stats.dram_sectors stats)

let test_mem_path_begin_kernel_flushes_l1_not_l2 () =
  let mp = Mem_path.create cfg in
  ignore (replay ~mp [ [ [| 0 |] ] ]);
  Mem_path.begin_kernel mp;
  check Alcotest.bool "l1 flushed" false (Mem_path.l1_probe mp ~sm:0 ~sector:0);
  (* The 64 B DRAM fill installed the pair sector in L2 as well. *)
  let stats2 = Stats.create () in
  ignore (replay ~mp ~stats:stats2 [ [ [| 0 |] ] ]);
  (* L2 still warm: the reload must be an L2 hit, not a DRAM access. *)
  check Alcotest.int "no new dram sector" 0 (Stats.dram_sectors stats2);
  Mem_path.reset mp;
  let stats3 = Stats.create () in
  ignore (replay ~mp ~stats:stats3 [ [ [| 0 |] ] ]);
  check Alcotest.int "reset clears l2 too" 2 (Stats.dram_sectors stats3)

(* --- warp ctx / device ------------------------------------------------ *)

let test_warp_ctx_load_store () =
  let heap = Page_store.create () in
  Page_store.store heap 64 7;
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1 |] () in
  let v = Warp_ctx.load ctx ~label:Label.Body [| 64; 72 |] in
  check (Alcotest.array Alcotest.int) "loaded" [| 7; 0 |] v;
  Warp_ctx.store ctx ~label:Label.Body [| 72; 80 |] [| 5; 6 |];
  check Alcotest.int "stored" 5 (Page_store.load heap 72);
  check Alcotest.int "trace records" 2 (Trace.length (Warp_ctx.trace ctx))

let test_warp_ctx_strips_tags () =
  let heap = Page_store.create () in
  Page_store.store heap 64 9;
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0 |] () in
  let tagged = Repro_mem.Vaddr.with_tag 64 ~tag:77 in
  let v = Warp_ctx.load ctx ~label:Label.Body [| tagged |] in
  check (Alcotest.array Alcotest.int) "tag transparent" [| 9 |] v

let test_warp_ctx_diverge () =
  let heap = Page_store.create () in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1; 2; 3 |] () in
  let seen = ref [] in
  Warp_ctx.diverge ctx ~label:Label.Body ~keys:[| 1; 2; 1; 3 |]
    (fun ~key sub idxs ->
      seen := (key, Warp_ctx.tids sub, idxs) :: !seen);
  let seen = List.rev !seen in
  check Alcotest.int "three groups" 3 (List.length seen);
  (match seen with
   | (k1, tids1, idxs1) :: (k2, _, _) :: (k3, _, _) :: _ ->
     check Alcotest.int "first-occurrence order" 1 k1;
     check Alcotest.int "second" 2 k2;
     check Alcotest.int "third" 3 k3;
     check (Alcotest.array Alcotest.int) "subset tids" [| 0; 2 |] tids1;
     check (Alcotest.array Alcotest.int) "parent idxs" [| 0; 2 |] idxs1
   | _ -> Alcotest.fail "unexpected grouping");
  (* One ctrl instruction per executed subset. *)
  check Alcotest.int "ctrl per group" 3 (Trace.length (Warp_ctx.trace ctx))

let test_warp_ctx_if () =
  let heap = Page_store.create () in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 10; 11; 12 |] () in
  let then_tids = ref [||] and else_tids = ref [||] in
  Warp_ctx.if_ ctx ~label:Label.Body ~pred:[| true; false; true |]
    (fun sub _ -> then_tids := Warp_ctx.tids sub)
    (Some (fun sub _ -> else_tids := Warp_ctx.tids sub));
  check (Alcotest.array Alcotest.int) "then lanes" [| 10; 12 |] !then_tids;
  check (Alcotest.array Alcotest.int) "else lanes" [| 11 |] !else_tids

let test_warp_ctx_width_mismatch () =
  let heap = Page_store.create () in
  let ctx = Warp_ctx.create ~heap ~warp_id:0 ~lanes:[| 0; 1 |] () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Warp_ctx.load: per-lane array width mismatch") (fun () ->
      ignore (Warp_ctx.load ctx ~label:Label.Body [| 0 |]))

let test_device_runs_kernel () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let out = Repro_mem.Address_space.create () in
  let arena = Repro_mem.Address_space.reserve out ~name:"buf" ~size:4096 in
  let base = arena.Repro_mem.Address_space.base in
  Device.launch device ~n_threads:100 (fun ctx ->
      let tids = Warp_ctx.tids ctx in
      let addrs = Array.map (fun t -> base + (8 * t)) tids in
      Warp_ctx.store ctx ~label:Label.Body addrs (Array.map (fun t -> t * 2) tids));
  for t = 0 to 99 do
    check Alcotest.int "thread wrote" (2 * t) (Page_store.load heap (base + (8 * t)))
  done;
  check Alcotest.bool "cycles advanced" true (Stats.cycles (Device.stats device) > 0.);
  check Alcotest.int "one launch" 1 (Device.launches device);
  (* 100 threads = 4 warps, one store each. *)
  check Alcotest.int "mem instrs" 4 (Stats.instructions (Device.stats device) `Mem)

let test_device_partial_warp () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let widths = ref [] in
  Device.launch device ~n_threads:40 (fun ctx -> widths := Warp_ctx.n_active ctx :: !widths);
  check (Alcotest.list Alcotest.int) "32 + tail of 8" [ 32; 8 ] (List.rev !widths)

let test_device_reset () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  Device.launch device ~n_threads:32 (fun ctx -> Warp_ctx.compute ctx ~label:Label.Body);
  Device.reset_stats device;
  check (Alcotest.float 1e-9) "cycles reset" 0. (Stats.cycles (Device.stats device));
  check Alcotest.int "launches reset" 0 (Device.launches device)

let test_device_kernel_timeline () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let kernel ctx =
    let addrs = Array.map (fun t -> 1 lsl 20 lor (t * 64)) (Warp_ctx.tids ctx) in
    ignore (Warp_ctx.load ctx ~label:Label.Vtable_load addrs);
    Warp_ctx.compute ctx ~label:Label.Body
  in
  Device.launch device ~n_threads:64 kernel;
  Device.launch device ~n_threads:32 kernel;
  let timeline = Device.kernel_timeline device in
  check Alcotest.int "one entry per launch" 2 (List.length timeline);
  (* Accumulating the per-launch deltas reproduces the device totals
     exactly, float counters included — same add sequence, same result. *)
  let acc = Stats.create () in
  List.iter (Stats.add acc) timeline;
  let total = Device.stats device in
  check Alcotest.bool "cycles bit-exact" true
    (Stats.cycles acc = Stats.cycles total);
  check Alcotest.int "load transactions" (Stats.load_transactions total)
    (Stats.load_transactions acc);
  check Alcotest.bool "stall cycles bit-exact" true
    (Stats.stall_cycles acc Label.Vtable_load
     = Stats.stall_cycles total Label.Vtable_load);
  Device.reset_stats device;
  check Alcotest.int "reset clears timeline" 0
    (List.length (Device.kernel_timeline device))

let test_sm_blocking_latency_attribution () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  Device.launch device ~n_threads:32 (fun ctx ->
      let addrs = Array.map (fun t -> 1 lsl 20 lor (t * 4096)) (Warp_ctx.tids ctx) in
      ignore (Warp_ctx.load ctx ~label:Label.Vtable_load addrs));
  let stats = Device.stats device in
  check Alcotest.bool "stall attributed to the label" true
    (Stats.stall_cycles stats Label.Vtable_load > 0.);
  check (Alcotest.float 1e-9) "no stall on other labels" 0.
    (Stats.stall_cycles stats Label.Coal_lookup)

let test_more_warps_hide_latency () =
  (* Same per-thread work; oversubscription must not slow things down
     proportionally — latency hiding is the GPU's whole premise. *)
  let run n_threads =
    let heap = Page_store.create () in
    let device = Device.create ~heap () in
    Device.launch device ~n_threads (fun ctx ->
        let addrs = Array.map (fun t -> (t * 4096) land 0xFFFFF) (Warp_ctx.tids ctx) in
        ignore (Warp_ctx.load ctx ~label:Label.Body addrs);
        Warp_ctx.compute ctx ~n:4 ~label:Label.Body);
    Stats.cycles (Device.stats device)
  in
  let one_warp = run 32 in
  let many_warps = run (32 * 64) in
  check Alcotest.bool "64x work is far less than 64x time" true
    (many_warps < one_warp *. 32.)

(* --- SoA trace storage ------------------------------------------------ *)

let test_trace_soa_roundtrip () =
  let t = Trace.create () in
  let tagged = Repro_mem.Vaddr.with_tag 64 ~tag:5 in
  let off = Trace.emit_load t ~label:Label.Body ~blocking:true [| tagged; 128 |] in
  Trace.emit_compute t ~label:Label.Body ~n:3 ~blocking:false ~active:2;
  (* Emission strips tag bits on the way into the arena. *)
  check Alcotest.int "arena canonical" 64 (Trace.arena t).(off);
  check Alcotest.int "arena second lane" 128 (Trace.arena t).(off + 1);
  check Alcotest.int "load opcode" Trace.op_load (Trace.op t 0);
  check Alcotest.int "label index" (Label.to_index Label.Body)
    (Trace.label_index t 0);
  check Alcotest.bool "blocking" true (Trace.is_blocking t 0);
  check Alcotest.int "repeat of compute" 3 (Trace.repeat t 1);
  check Alcotest.int "instruction total" 4 (Trace.instruction_total t);
  (* The compatibility view materializes equivalent Instr.t records. *)
  (match (Trace_compat.get t 0).Instr.kind with
   | Instr.Load a -> check (Alcotest.array Alcotest.int) "compat payload" [| 64; 128 |] a
   | _ -> Alcotest.fail "expected a load");
  check Alcotest.int "compat compute count" 3
    (Instr.instruction_count (Trace_compat.get t 1))

let test_trace_compat_emit () =
  let t = Trace.create () in
  Trace_compat.emit t (Instr.load ~label:Label.Vtable_load [| 256 |]);
  Trace_compat.emit t (Instr.ctrl ~n:2 ~label:Label.Body 7);
  let got = ref [] in
  Trace_compat.iter (fun i -> got := Instr.class_of i :: !got) t;
  check Alcotest.int "length" 2 (Trace.length t);
  check Alcotest.bool "classes preserved" true (List.rev !got = [ `Mem; `Ctrl ])

(* --- zero-allocation replay ------------------------------------------- *)

let canned_traces ~n_warps ~n_instrs =
  let heap = Page_store.create () in
  seal_all @@ Array.init n_warps (fun warp_id ->
      let lanes = Array.init 32 (fun l -> (warp_id * 32) + l) in
      let ctx = Warp_ctx.create ~heap ~warp_id ~lanes () in
      for i = 0 to n_instrs - 1 do
        match i mod 5 with
        | 0 ->
          let base = (i * 544) land 0xFFFF8 in
          ignore
            (Warp_ctx.load ctx ~label:Label.Body
               (Array.map (fun l -> base + (8 * (l land 31))) lanes))
        | 1 ->
          let base = (i * 288) land 0xFFFF8 in
          Warp_ctx.store ctx ~label:Label.Body
            (Array.map (fun l -> base + (8 * (l land 31))) lanes)
            lanes
        | 2 -> Warp_ctx.compute ctx ~n:3 ~label:Label.Body
        | 3 -> Warp_ctx.ctrl ctx ~label:Label.Body
        | _ -> Warp_ctx.call_indirect ctx ~label:Label.Call
      done;
      Warp_ctx.trace ctx)

(* A page table over the first 32 MiB, so every address the canned and
   random programs touch is mapped, cut into many spans: 64 KiB large
   pages every 256 KiB, 4 KiB pages between them. Lookups therefore
   leave their span often, and the page-table search, not just its
   cursor, runs on the replay path. *)
let test_vm () =
  let promoted =
    List.init 128 (fun i ->
        let base = (i * 256 * 1024) + (128 * 1024) in
        (base, base + (64 * 1024), i land 3))
  in
  let table =
    Repro_vm.Page_table.build ~policy:Repro_vm.Policy.Coalesce
      ~arenas:[ (0, 32 * 1024 * 1024) ] ~promoted ()
  in
  assert (Repro_vm.Page_table.spans table > 200);
  Repro_vm.Vm.create ~n_sms:cfg.Config.n_sms ~table ()

(* Ring-only telemetry: windowed sampling owns one Stats row per window
   (a deliberate per-window allocation), so the per-instruction
   invariant is pinned on the event tracer alone. *)
let ring_telemetry () =
  Telemetry.create { Telemetry.window = None; trace = true; trace_capacity = 4096 }

(* Minor words of one replay after a warm-up replay on the same path.
   With a translation model the path (and its TLBs) is reset before the
   measured replay, so it walks and misses rather than replaying warm. *)
let replay_minor_words ?telemetry ?vm traces =
  let mp = Mem_path.create cfg in
  Mem_path.set_vm mp vm;
  let stats = Stats.create () in
  ignore (Sm.run_fused ?telemetry cfg mp ~stats ~traces);
  if vm <> None then Mem_path.reset mp;
  let walks = Stats.tlb_walks stats in
  let w0 = Gc.minor_words () in
  ignore (Sm.run_fused ?telemetry cfg mp ~stats ~traces);
  let words = Gc.minor_words () -. w0 in
  if vm <> None then
    check Alcotest.bool "measured replay walks" true
      (Stats.tlb_walks stats > walks);
  words

(* The timing phase must allocate a per-run constant (hoisted columns,
   heap setup) and nothing per instruction: replaying 10x the
   instructions may not allocate more than a small fixed slack over the
   short trace. This is the invariant DESIGN.md documents; any boxed
   float, closure or record sneaking into Sm/Coalesce/Cache breaks it
   loudly. *)
let check_no_per_instr_alloc ?telemetry ?vm what =
  let words n_instrs =
    replay_minor_words ?telemetry ?vm (canned_traces ~n_warps:8 ~n_instrs)
  in
  let short = words 300 and long = words 3000 in
  check Alcotest.bool
    (Printf.sprintf "%s allocation independent of trace length (short=%.0f long=%.0f)"
       what short long)
    true
    (long <= short +. 256.)

let test_replay_zero_allocation () = check_no_per_instr_alloc "replay"

(* Recording an event is six array stores plus a bump — enabling the
   tracer must not cost an allocation per instruction either, even when
   the ring wraps and drops. *)
let test_replay_zero_allocation_traced () =
  check_no_per_instr_alloc ~telemetry:(ring_telemetry ()) "tracer-on"

(* Translation adds a TLB lookup per sector, walk-cycle accumulation and
   TLB-walk ring events; none of it may allocate. *)
let test_replay_zero_allocation_translated () =
  check_no_per_instr_alloc ~telemetry:(ring_telemetry ()) ~vm:(test_vm ())
    "translated tracer-on"

(* --- replay identity ---------------------------------------------------- *)

(* Random warp programs over the full instruction vocabulary — converged
   and per-lane-diverged loads, stores, compute bursts, ctrl, indirect
   calls — across mixed warp widths (full, partial, single-lane). *)
let run_ops ctx lanes ops =
  List.iter
    (fun (op, r) ->
      let base = (r * 8) land 0xFFFF8 in
      match op with
      | 0 ->
        ignore
          (Warp_ctx.load ctx ~label:Label.Body
             (Array.map (fun l -> base + (8 * (l land 31))) lanes))
      | 1 ->
        (* One sector per lane: the diverged vTable pattern. *)
        ignore
          (Warp_ctx.load ctx ~label:Label.Vtable_load
             (Array.map
                (fun l -> (base + (4096 * (l land 31))) land 0xFFFFF8)
                lanes))
      | 2 ->
        Warp_ctx.store ctx ~label:Label.Body
          (Array.map (fun l -> base + (8 * (l land 31))) lanes)
          (Array.map (fun l -> l + 1) lanes)
      | 3 -> Warp_ctx.compute ctx ~n:(1 + (r mod 4)) ~label:Label.Body
      | 4 -> Warp_ctx.ctrl ctx ~label:Label.Body
      | _ -> Warp_ctx.call_indirect ctx ~label:Label.Call)
    ops

let traces_of_ops ops =
  let heap = Page_store.create () in
  let widths = [| 32; 17; 32; 5 |] in
  seal_all @@ Array.init (Array.length widths) (fun warp_id ->
      let lanes = Array.init widths.(warp_id) (fun l -> (warp_id * 32) + l) in
      let ctx = Warp_ctx.create ~heap ~warp_id ~lanes () in
      run_ops ctx lanes ops;
      Warp_ctx.trace ctx)

(* Program [k] of the frozen set: a fixed-seed draw of 1..80 ops. *)
let frozen_program k =
  let rng = Repro_util.Rng.create ~seed:(7919 * (k + 1)) in
  let n = 1 + Repro_util.Rng.int rng 80 in
  List.init n (fun _ ->
      let op = Repro_util.Rng.int rng 6 in
      (op, Repro_util.Rng.int rng 0x10000))

let md5 v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

(* One windowed, ring-recording replay bracketed as [Device.launch]
   brackets it: (cycles, window rows, the stats sink, ring events, drops). *)
let traced_replay ?vm ~window ~capacity traces =
  let tel =
    Telemetry.create
      { Telemetry.window = Some window; trace = true; trace_capacity = capacity }
  in
  let ring = Option.get tel.Telemetry.ring in
  let sampler = Option.get tel.Telemetry.sampler in
  let mp = Mem_path.create cfg in
  Mem_path.set_vm mp vm;
  let stats = Stats.create () in
  Telemetry.Ring.begin_launch ring ~base:0.;
  Telemetry.Sampler.begin_launch sampler;
  let cycles = Sm.run_fused ~telemetry:tel cfg mp ~stats ~traces in
  Telemetry.Sampler.finish_launch sampler ~cycles;
  let rows = Telemetry.Sampler.take sampler in
  (cycles, rows, stats, Telemetry.Ring.to_events ring,
   Telemetry.Ring.all_dropped ring)

(* Digests of the frozen programs, produced by the deleted reference
   replay loop (a separate scheduler with its own flat event heap and
   memory-path load/store walkers): the MD5 of (cycles, [Stats.to_raw]) of a plain replay, and of (cycles,
   window rows, stats sink, ring events, drops) of a replay with a
   64-cycle window and a 4096-event ring (small enough to wrap). *)
let frozen_program_digests =
  [|
    ("2e2abb4e4ea2cf37a520e3600ffb56ae", "e75b889b3eb3cefc70be526476d1af89");
    ("8fd294d3d979f289294ac1ed69ac9185", "180f510b88cec1e7b25a7665182feefc");
    ("b42952ce259d77e21e79d9b514c975d8", "b12239d7e231ced0345c2d8654037249");
    ("e3ba158e5e441a604848526a27ade089", "fc314bf4fb7e6731c5b0728569cb6644");
    ("367e2c630c7b59fc4108712bc1e2949c", "305b20621c0221d471908a6a3a6ced62");
    ("398dafa76038b530b29a132261d1e377", "a7cf36c804444827b96e96dbfb134626");
    ("09b5205f8e88a36b90f846feb47438bc", "d4d53ca7fc2f339c18644a4ad41470ac");
    ("b8a4f66e3df849c013a9ef4d98f0f9b8", "b0e6966a9526208920c8eeaf9eaa81bf");
    ("9094ee39aadcf01c9a1145bee9d51a8a", "9644a86dc0dacc09fd80884ecabbddc5");
    ("716fbaf61af7fce2c9b75a2f797243c4", "c0fa2ff6fb75a959a6b8ae05ca386d49");
    ("a39e9ad7a045ef0366549443921b740d", "b0a5e2cfae63d699129d7e646e2dcae9");
    ("dfc6b539a3cc6b68289011c921cda5fa", "6f71e4acbbb63a041aae813ee4aad527");
    ("5d14ccf9d070f706cc740c49a166c932", "b6c01d6facef911796dd87bf8f149676");
    ("c344c7d0dca1e248b31dfc1474fcb1ee", "4df9e718576c076692a5f8a89a076c51");
    ("bb7b969b3bcd06e2b34e2bad6aec472b", "329d33e9a3c4843b81a22d2e014a916b");
    ("2c34ec23d6ccffd623f2a95626440773", "04d74274e3866dc6a7352f3bdd7fb9e5");
    ("43fcf2c7392fd8e5e61723640216ae05", "02a122a04a9ace2c08647ce5d1782a05");
    ("51a514f943f1f0d57d851ac1c4c74f4c", "b9f6789391e986f9267017a136d6cf56");
    ("929d222efbe5484a209908b65109808c", "efdd8e0dcf873da7efac6abf525646a7");
    ("0c0d02f6e3722e9806c82224fbbd6560", "bc849617ffd1ec40dbace2a549b71047");
    ("ad806a7e35588db168bc365536d200be", "a9b5910d1e6028931bcb0157ea5780d8");
    ("40bae6cee834ee0978fe3a7727c5f97b", "cdf79d69dd6d6ff8d419bc20b9aa4d77");
    ("9c821b3a3ad2c20de93c14b3fe532f9d", "624f563889872da5f3236b83f0be7060");
    ("7b02cc489a3cfdaa5b7a96e0088e6eaf", "d661565dbeacb9e0369f7c4bbafba419");
    ("e3498d2e9b4f5f936ff7912b61df4171", "757a883e35bc87caf613276284e885a7");
    ("f6fb29d79b5072af5fa45829c1d017cf", "959dee97c6762e2c6601ca67995f461a");
    ("62388333a17a807e92d6c33c5afcc31f", "4075e0de33ec9bf08c988eb4b8acc85a");
    ("a69e98db556c47ee4da5ee123ab1634c", "c010f7d765ae02029bd356efdaa6fb5d");
    ("efcb214c1eef5be6a20076933fee4028", "edad4440eaa4aeff8600a8a2cad794e2");
    ("6c1bbcfe39507841ec0eee75a0a5bae6", "a84a6cab633266b59a418523e613dbac");
    ("0a9f64d873de80fabd3de18831b11206", "bd529602839d49faaca08d0dab698cb5");
    ("df00ec1fb6515bfba7542bdcef9dff7e", "1562fde6cc34c2ae7af38956579009af");
    ("246e5dfd03d6a447d9acb167533943c5", "0f9245d7fa191cf368adeb9a21edddbd");
    ("22d57df8837676d38d59502dda1a832c", "37227f2e9a53a6c06f95f5e6197cb813");
    ("643f11eeefb6d4c839f622d6f591391d", "aa134f5b26d576746ee34364f809d0a0");
    ("e008d7f3b27cef15675e5e1b2b1a22d4", "eb5904fbbff347c88730dd5be41ca75e");
    ("d077d497633109550d32db3c26e4f793", "84f43d49e32dfbb4323dfd71f7aa58f1");
    ("4ad305965483f41fc8f69b0f5afa7fc6", "49c7916cdc92c80d1894eed4d52b1cd1");
    ("079d864d35f35c7b3575fdd25768cb3a", "d6289e16be1b3e8c6972d1b79c68f3bc");
    ("702329944df318905f8c1f2928bc2a10", "d0e5ec3021d83c6286359d9f94cbcf2e");
    ("99c4166fe83893cd53420c6a88903875", "e8f7409f5289e09dda563b7a9a206952");
    ("f7e291419a1787483ddef9735bd5a9fb", "b76b16eeed49113adb32d4f73607d8e6");
    ("8ffb04787f98751b814088f628d7ebed", "4d1ebf9445035e81dfc042e1cbce5787");
    ("a2ecdd5e2552630bc561fbd78864af94", "c3f84a16ad88ef18703ca51e76b8bdff");
    ("32031ef9eb7df84016a0f9003cc823c0", "fdf669b7b648e3718ded5e48752bf5fa");
    ("b8487057ea4c8c3ab1e7590f8422ad09", "95991dea4762e0725fa98530d50ab1ce");
    ("f2b6754c5982baff04bffd8904284702", "47513f5229469dbc9aac0de1db7e1ebd");
    ("2af35bf2b3a08f3af313924e4f35ff7b", "b959f5ed5c34fb0ec7d1d97883c457cc");
    ("94d4473eae9f64f83db0f43c460af425", "4981423cf4c24d269132ce497ff6b040");
    ("f627633c5c3e03455ced7c93ef7f2a9c", "e0e3b927158dee35df8862cc11051ec6");
    ("5bc27780ccf9cc96dec8c4ffca61ec79", "7c57cf8ff66b679aa8319df530ce27b3");
    ("c2df1b421f3739e0be2286ccf82a13c7", "b1bffe11443908b4d5e0ea0c746c3b99");
    ("b83af07c16985d7d3a59ba7d0e843e71", "5f95385ec4ecc4408256fe6a7329d942");
    ("7bcdb39443b73e2061ec8e919f75eb31", "766132b9fa15bfbb1bde74a6ff4d137f");
    ("8c4eea8304b25cf417294641ca49bf9d", "8c90e6d51a476b6e0fd10502b4dd83a8");
    ("d252efa604c180a04800c71a5dbe5036", "7d651ee4c1e6099b7c52eba68b56bbf3");
    ("c3e5f5cf3f551a442c6c3328eaa87add", "c3304504eb761bddb014cc438cb3e1f7");
    ("e84f7ad5308d91ffda5e826f3f7e3059", "ddbb5b35c98ae7edfed4c74cfae60353");
    ("d575a64e19c9241f478192ac978ff7e2", "a27679f2b6af4eea8e164d9a57478555");
    ("6a0e36ca7148e03e6c77d89cbb8759a9", "49fce1a4a4889b36c39a67c42b861ff8");
  |]

let test_frozen_program_digests () =
  Array.iteri
    (fun k (want_plain, want_traced) ->
      let traces = traces_of_ops (frozen_program k) in
      let stats = Stats.create () in
      let cycles = Sm.run_fused cfg (Mem_path.create cfg) ~stats ~traces in
      check Alcotest.string (Printf.sprintf "program %d plain" k) want_plain
        (md5 (cycles, Stats.to_raw stats));
      let cycles, rows, stats, events, dropped =
        traced_replay ~window:64 ~capacity:4096 traces
      in
      check Alcotest.string (Printf.sprintf "program %d traced" k) want_traced
        (md5 (cycles, Array.map Stats.to_raw rows, Stats.to_raw stats, events,
              dropped)))
    frozen_program_digests

(* Telemetry observes only: with a window and a ring attached (and a
   ring small enough to drop), a replay has the same cycles and the same
   integer counters — folded over its window rows — as a plain replay,
   with or without translation. Float counters may differ only in the
   association of the fold, and [trace_dropped] is the ring's own. *)
let prop_telemetry_observation_only =
  QCheck.Test.make ~name:"telemetry is observation-only (cycles, int counters)"
    ~count:60
    QCheck.(
      triple bool (int_range 1 300)
        (list_of_size (Gen.int_range 1 80) (pair (int_bound 5) (int_bound 0xFFFF))))
    (fun (translated, window, ops) ->
      let traces = traces_of_ops ops in
      let vm = if translated then Some (test_vm ()) else None in
      let mp = Mem_path.create cfg in
      Mem_path.set_vm mp vm;
      let plain = Stats.create () in
      let c1 = Sm.run_fused cfg mp ~stats:plain ~traces in
      let vm = if translated then Some (test_vm ()) else None in
      let c2, rows, _, _, _ = traced_replay ?vm ~window ~capacity:512 traces in
      let folded = Stats.create () in
      Array.iter (fun row -> Stats.add folded row) rows;
      let ints s =
        { (Stats.to_raw s) with
          Stats.cycles = 0.; trace_dropped = 0; tlb_walk_cycles = 0.;
          stalls = [||] }
      in
      c1 = c2 && ints plain = ints folded)

(* --- sealed traces ------------------------------------------------------ *)

(* Sealing keeps each memory record's coalesced sectors (what replay
   reads) instead of its lanes, and shares the columns of identical
   streams. *)
let test_seal_stores_sectors () =
  let emit addrs =
    let t = Trace.create () in
    ignore (Trace.emit_load t ~label:Label.Body ~blocking:true addrs);
    Trace.emit_compute t ~label:Label.Body ~n:2 ~blocking:false ~active:4;
    ignore (Trace.emit_store t ~label:Label.Body (Array.map (fun a -> a + 8) addrs));
    t
  in
  let lanes = [| 4096; 64; Repro_mem.Vaddr.with_tag 4100 ~tag:3; 72 |] in
  match seal_all [| emit lanes; emit [| 0; 32; 64; 96 |] |] with
  | [| a; b |] ->
    check (Alcotest.array Alcotest.int) "load sectors"
      (Coalesce.sectors lanes) (Trace.sectors a 0);
    check (Alcotest.array Alcotest.int) "compute has none" [||]
      (Trace.sectors a 1);
    check (Alcotest.array Alcotest.int) "store sectors"
      (Coalesce.sectors (Array.map (fun x -> x + 8) lanes)) (Trace.sectors a 2);
    check Alcotest.bool "identical streams share columns" true
      (Trace.shares_columns a b);
    check (Alcotest.array Alcotest.int) "sectors stay per warp" [| 0; 1; 2; 3 |]
      (Trace.sectors b 0);
    check Alcotest.int "instruction total" 4 (Trace.instruction_total b)
  | _ -> Alcotest.fail "two traces"

(* --- the value slab ------------------------------------------------------ *)

(* A random warp program that leans on every array the slab hands out:
   loaded values feed later addresses and stores, divergence keys come
   from loaded values, bodies diverge again and write back through their
   index maps into arrays taken earlier in the warp. A slab array reused
   too early, or shared between two live arrays, changes an address, a
   stored value or a branch. *)
let rec slab_ops ctx vals depth ops =
  let addrs_of base vals =
    Array.map (fun v -> (base + (8 * (v land 255))) land 0xFFFF8) vals
  in
  List.iter
    (fun (op, r) ->
      let base = (r * 8) land 0xFFFF8 in
      match op with
      | 0 ->
        let got = Warp_ctx.load ctx ~label:Label.Body (addrs_of base !vals) in
        vals := Array.mapi (fun i v -> (v + got.(i)) land 0xFFFFFF) !vals
      | 1 ->
        let n = Array.length !vals in
        let buf = Warp_ctx.addr_scratch ctx n in
        Array.blit (addrs_of base !vals) 0 buf 0 n;
        let got =
          Warp_ctx.load_into ctx ~label:Label.Body ~blocking:true ~addrs:buf ~n
        in
        (* Keep the slab array itself: it must survive to the warp's end. *)
        for i = 0 to n - 1 do
          got.(i) <- (got.(i) + !vals.(i) + 1) land 0xFFFFFF
        done;
        vals := got
      | 2 ->
        Warp_ctx.store ctx ~label:Label.Body (addrs_of base !vals)
          (Array.map (fun v -> ((v * 7) + r) land 0xFFFFFF) !vals)
      | 3 when depth < 3 ->
        let keys = Array.map (fun v -> (v + r) mod 3) !vals in
        let parent = !vals in
        Warp_ctx.diverge ctx ~label:Label.Body ~keys (fun ~key sub idxs ->
            let sub_vals = ref (Warp_ctx.gather idxs parent) in
            sub_vals := Array.map (fun v -> v + key) !sub_vals;
            slab_ops sub sub_vals (depth + 1)
              (List.filteri (fun i _ -> i mod 4 = key) ops);
            Warp_ctx.scatter idxs parent !sub_vals)
      | 4 when depth < 3 ->
        let parent = !vals in
        Warp_ctx.if_ ctx ~label:Label.Body
          ~pred:(Array.map (fun v -> (v + r) land 1 = 0) parent)
          (fun sub idxs ->
            let sub_vals = ref (Warp_ctx.gather idxs parent) in
            slab_ops sub sub_vals (depth + 1) (List.filteri (fun i _ -> i mod 3 = 0) ops);
            Warp_ctx.scatter idxs parent !sub_vals)
          (Some
             (fun sub idxs ->
               Warp_ctx.store sub ~label:Label.Body
                 (addrs_of base (Warp_ctx.gather idxs parent))
                 (Warp_ctx.tids sub)))
      | 5 -> Warp_ctx.compute ctx ~n:(1 + (r mod 4)) ~label:Label.Body
      | _ -> Warp_ctx.ctrl ctx ~label:Label.Body)
    ops

(* Run [ops] as four warps of mixed widths, seeding the heap first so
   loads see data; with [shared], every warp takes from one slab that is
   released at each warp start, as a device does; otherwise each context
   has its own. Returns the sealed streams (every record's op, label,
   active lanes, repeat, blocking flag and sectors) and the heap. *)
let run_slab_program ~shared ops =
  let heap = Page_store.create () in
  for i = 0 to 4095 do
    Page_store.store heap (8 * i) ((i * 2654435761) land 0xFFFF)
  done;
  let slab = Repro_gpu.Slab.create () in
  let scratch = Trace.create () in
  let pool = Trace.Intern.create () in
  let widths = [| 32; 17; 32; 5 |] in
  let traces =
    Array.init (Array.length widths) (fun warp_id ->
        let lanes = Array.init widths.(warp_id) (fun l -> (warp_id * 32) + l) in
        Trace.reset scratch;
        let ctx =
          if shared then begin
            Repro_gpu.Slab.release slab;
            Warp_ctx.create ~trace:scratch ~slab ~heap ~warp_id ~lanes ()
          end
          else Warp_ctx.create ~trace:scratch ~heap ~warp_id ~lanes ()
        in
        slab_ops ctx (ref (Array.copy lanes)) 0 ops;
        Trace.Intern.seal pool scratch)
  in
  let view t =
    List.init (Trace.length t) (fun i ->
        ( Trace.op t i, Trace.label_index t i, Trace.active t i,
          Trace.repeat t i, Trace.is_blocking t i, Trace.sectors t i ))
  in
  let words = ref [] in
  Page_store.iter_words heap (fun a v -> words := (a, v) :: !words);
  (Array.map view traces, List.sort compare !words)

let prop_slab_invisible =
  QCheck.Test.make ~name:"value slab: same traces and heap as fresh arrays"
    ~count:60
    QCheck.(int_bound 100_000)
    (fun k ->
      let ops = frozen_program k in
      run_slab_program ~shared:true ops = run_slab_program ~shared:false ops)

(* --- launch pipelining -------------------------------------------------- *)

module Cores = Repro_util.Spare_cores

(* Run [f] with exactly one spare-core token free ([lane = true]: a
   device takes it for a replay lane) or none, through the call
   [Pool.map] uses, on any core count. *)
let with_lane lane f =
  let free = Cores.available () in
  Cores.hold (if lane then free - 1 else free) f

let kernel_of_ops ops ctx = run_ops ctx (Warp_ctx.tids ctx) ops

(* A random multi-launch program on a windowed, ring-recording,
   sanitized device, with the translation model swapped between
   launches (none, or one of two fresh flat-4K models) and some stats
   reads in the middle (lane drain points). Everything a job reads
   back. *)
let run_program program =
  let heap = Page_store.create () in
  let san = Repro_san.Checker.create ~tags_expected:false () in
  let telemetry =
    { Telemetry.window = Some 128; trace = true; trace_capacity = 2048 }
  in
  let dev = Device.create ~san ~telemetry ~heap () in
  let vms = [| None; Some (test_vm ()); Some (test_vm ()) |] in
  List.iter
    (fun (vm, n_threads, read, ops) ->
      Device.set_vm dev vms.(vm);
      Device.launch dev ~n_threads (kernel_of_ops ops);
      if read then ignore (Device.stats dev))
    program;
  ( Stats.to_raw (Device.stats dev),
    List.map Stats.to_raw (Device.kernel_timeline dev),
    List.map (Array.map Stats.to_raw) (Device.window_timeline dev),
    Device.telemetry_dump dev )

let prop_lane_invisible =
  QCheck.Test.make ~name:"replay lane on or off: identical results" ~count:25
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (quad (int_bound 2) (int_range 1 320) bool
           (list_of_size (Gen.int_range 1 30)
              (pair (int_bound 5) (int_bound 0xFFFF)))))
    (fun program ->
      let on = with_lane true (fun () -> run_program program) in
      let off = with_lane false (fun () -> run_program program) in
      on = off && Cores.available () = Cores.initial)

exception Kernel_failed

(* A wide launch keeps the lane busy while the next ones emit. *)
let busy_kernel = kernel_of_ops (List.init 40 (fun i -> (i mod 6, 977 * i)))

let test_lane_kernel_exception () =
  let dev = ref None in
  with_lane true (fun () ->
      let heap = Page_store.create () in
      let d = Device.create ~heap () in
      dev := Some d;
      Device.launch d ~n_threads:2048 busy_kernel;
      Device.launch d ~n_threads:2048 busy_kernel;
      (match Device.launch d ~n_threads:64 (fun _ -> raise Kernel_failed) with
       | () -> Alcotest.fail "launch 3 should raise"
       | exception Kernel_failed -> ());
      check Alcotest.int "lane gave its core back" 1 (Cores.available ()));
  check Alcotest.int "budget restored" Cores.initial (Cores.available ());
  let d = Option.get !dev in
  check Alcotest.int "two launches emitted" 2 (Device.launches d);
  check Alcotest.int "both replayed" 2 (List.length (Device.kernel_timeline d))

(* A device dropped without ever being read: its lane runs out of work
   and gives its core back on its own. *)
let test_lane_dropped_device () =
  with_lane true (fun () ->
      let heap = Page_store.create () in
      let d = Device.create ~heap () in
      Device.launch d ~n_threads:2048 busy_kernel;
      Device.launch d ~n_threads:2048 busy_kernel);
  let deadline = Unix.gettimeofday () +. 30. in
  while Cores.available () <> Cores.initial && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  check Alcotest.int "budget restored" Cores.initial (Cores.available ())

let test_ring_drop_oldest () =
  let r = Telemetry.Ring.create ~capacity:4 in
  Telemetry.Ring.begin_launch r ~base:0.;
  for i = 0 to 5 do
    Telemetry.Ring.record r ~kind:Telemetry.Ring.kind_stall ~track:0 ~a:i ~b:i
      ~ts:(float_of_int i) ~dur:1.
  done;
  check Alcotest.int "len capped at capacity" 4 (Telemetry.Ring.length r);
  check Alcotest.int "two dropped" 2 (Telemetry.Ring.take_dropped r);
  check Alcotest.int "take_dropped resets" 0 (Telemetry.Ring.take_dropped r);
  check Alcotest.int "all_dropped persists" 2 (Telemetry.Ring.all_dropped r);
  let evs = Telemetry.Ring.to_events r in
  check Alcotest.int "four buffered" 4 (Array.length evs);
  (* The two oldest (a = 0, 1) were overwritten; the survivors come out
     oldest-first. *)
  Array.iteri
    (fun j (_, _, a, _, ts, _) ->
      check Alcotest.int "survivor payload" (j + 2) a;
      check Alcotest.bool "survivor timestamp" true (ts = float_of_int (j + 2)))
    evs;
  check Alcotest.bool "max_end covers last event" true
    (Telemetry.Ring.max_end r = 6.)

let suite =
  [
    Alcotest.test_case "label indexing" `Quick test_label_indexing;
    Alcotest.test_case "instr classes" `Quick test_instr_classes;
    Alcotest.test_case "coalesce basic" `Quick test_coalesce_basic;
    Alcotest.test_case "cache hit after miss" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache sector granularity" `Quick test_cache_sector_granularity;
    Alcotest.test_case "cache lru eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache flush" `Quick test_cache_flush;
    Alcotest.test_case "cache geometry validation" `Quick test_cache_geometry_validation;
    Alcotest.test_case "mem path latencies" `Quick test_mem_path_latencies;
    Alcotest.test_case "mem path private L1s" `Quick test_mem_path_l1_private_per_sm;
    Alcotest.test_case "mem path bandwidth" `Quick test_mem_path_bandwidth_serializes;
    Alcotest.test_case "kernel boundary semantics" `Quick
      test_mem_path_begin_kernel_flushes_l1_not_l2;
    Alcotest.test_case "warp ctx load/store" `Quick test_warp_ctx_load_store;
    Alcotest.test_case "warp ctx strips tags" `Quick test_warp_ctx_strips_tags;
    Alcotest.test_case "warp ctx diverge" `Quick test_warp_ctx_diverge;
    Alcotest.test_case "warp ctx if_" `Quick test_warp_ctx_if;
    Alcotest.test_case "warp ctx width mismatch" `Quick test_warp_ctx_width_mismatch;
    Alcotest.test_case "device runs kernel" `Quick test_device_runs_kernel;
    Alcotest.test_case "device partial warp" `Quick test_device_partial_warp;
    Alcotest.test_case "device reset" `Quick test_device_reset;
    Alcotest.test_case "device kernel timeline" `Quick test_device_kernel_timeline;
    Alcotest.test_case "stall attribution" `Quick test_sm_blocking_latency_attribution;
    Alcotest.test_case "latency hiding" `Quick test_more_warps_hide_latency;
    Alcotest.test_case "trace SoA roundtrip" `Quick test_trace_soa_roundtrip;
    Alcotest.test_case "trace compat emit/iter" `Quick test_trace_compat_emit;
    Alcotest.test_case "replay allocates nothing per instruction" `Quick
      test_replay_zero_allocation;
    Alcotest.test_case "tracer-on replay allocates nothing per instruction"
      `Quick test_replay_zero_allocation_traced;
    Alcotest.test_case "translated replay allocates nothing per instruction"
      `Quick test_replay_zero_allocation_translated;
    Alcotest.test_case "replay matches frozen random-program digests" `Quick
      test_frozen_program_digests;
    Alcotest.test_case "ring drop-oldest spill" `Quick test_ring_drop_oldest;
    Alcotest.test_case "seal stores coalesced sectors" `Quick
      test_seal_stores_sectors;
    Alcotest.test_case "replay lane: kernel raises while a launch replays"
      `Quick test_lane_kernel_exception;
    Alcotest.test_case "replay lane: dropped device frees its core" `Quick
      test_lane_dropped_device;
    QCheck_alcotest.to_alcotest prop_coalesce_bounds;
    QCheck_alcotest.to_alcotest prop_coalesce_scratch_equiv;
    QCheck_alcotest.to_alcotest prop_telemetry_observation_only;
    QCheck_alcotest.to_alcotest prop_lane_invisible;
    QCheck_alcotest.to_alcotest prop_slab_invisible;
    QCheck_alcotest.to_alcotest prop_cache_hits_bounded;
  ]
