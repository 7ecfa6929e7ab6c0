(* Cross-layer integration tests: harness guarantees, scheduler waves,
   paper-level properties that span modules. *)

module W = Repro_workloads
module R = Repro_core
module T = R.Technique
module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label
module Stats = Repro_gpu.Stats
module Device = Repro_gpu.Device
module Config = Repro_gpu.Config
module Page_store = Repro_mem.Page_store

let check = Alcotest.check

(* --- harness ------------------------------------------------------------ *)

(* A deliberately technique-dependent "workload": its result is the
   dispatch technique's name hash, so cross-technique validation must
   reject it. Guards the guard. *)
let treacherous_workload =
  let build (p : W.Workload.params) =
    let rt = R.Runtime.create ~technique:p.W.Workload.technique () in
    let impl = R.Runtime.register_impl rt ~name:"noop" (fun _ _ -> ()) in
    let t = R.Runtime.define_type rt ~name:"T" ~field_words:1 ~slots:[| impl |] () in
    ignore (R.Runtime.new_obj rt t);
    {
      W.Workload.rt;
      iterations = 1;
      run_iteration = (fun _ -> ());
      result = (fun () -> Hashtbl.hash (T.name p.W.Workload.technique));
    }
  in
  {
    W.Workload.name = "TREACHEROUS";
    suite = "test";
    description = "technique-dependent result, must be rejected";
    paper_objects = 1;
    paper_types = 1;
    build;
  }

(* Every default `repro sweep` cell at scale 0.02: (workload, column,
   [Harness.digest]). The digests were produced by the retired
   per-lane emission engine (exact-width address arrays, a fresh trace
   per warp, replay through [Sm.run]), and the interned engine matched
   it on every cell, so this table pins today's single engine to that
   reference. A change that moves any
   counter, heap word or result fails here; a deliberate model change
   regenerates the table and says why. *)
let frozen_sweep_digests =
  [
    ("Dynasoar/TRAF", "CUDA", "2c3badd9e3a6885c71440aa4d9ff3bf9");
    ("Dynasoar/TRAF", "CON", "2f1ec116cc781fe67f4fd61697ab3f97");
    ("Dynasoar/TRAF", "SHARD", "ffa8fd8fd59d01bfd40c1d2fee36a6b9");
    ("Dynasoar/TRAF", "COAL", "52f159f93a5e61757270b50454ec2620");
    ("Dynasoar/TRAF", "TP", "ca1e0087d3dcfbce90e1e9f1db2a2490");
    ("Dynasoar/TRAF", "DYNA", "aaeee2f16e8b22fbaff473112df33879");
    ("Dynasoar/GOL", "CUDA", "98237482bde8f4f2ce06731c983aaa3c");
    ("Dynasoar/GOL", "CON", "529d824dd68ee975030a7d55ec36a55c");
    ("Dynasoar/GOL", "SHARD", "02dfd1a9680893065b1e2857eae41188");
    ("Dynasoar/GOL", "COAL", "65132234b97da3796335c49eaadedcf1");
    ("Dynasoar/GOL", "TP", "f1a0c9e51c1dde094dfa9c23915eafb4");
    ("Dynasoar/GOL", "DYNA", "8bcbba1a067ed2339ffe891603ea66fd");
    ("Dynasoar/STUT", "CUDA", "d0fb363c9dcb24bbd0b3f7998074c320");
    ("Dynasoar/STUT", "CON", "9ba8a5f90b5816d9a6211dddc119bf88");
    ("Dynasoar/STUT", "SHARD", "6f64580e0cd7d3e7de7142d3167c9409");
    ("Dynasoar/STUT", "COAL", "84cabff364e9ff594a39e3892ee4f947");
    ("Dynasoar/STUT", "TP", "f3b2dd9bbdde1952f8b69d3a308791de");
    ("Dynasoar/STUT", "DYNA", "ff8607f160fca2c471b12372bc28d37d");
    ("Dynasoar/GEN", "CUDA", "a6485df9f9690aedad98a59b3d02825b");
    ("Dynasoar/GEN", "CON", "4f0c5e20a8b659b4c3701307057f16e6");
    ("Dynasoar/GEN", "SHARD", "a3af04d2d707b8b60e59e65d43f1de0c");
    ("Dynasoar/GEN", "COAL", "19fb6451d1153d08479257c7bfd9fa64");
    ("Dynasoar/GEN", "TP", "9e5c15a23aa946f18b2550b235e038ae");
    ("Dynasoar/GEN", "DYNA", "ff3e83045a0d77641c5ec636e4f28117");
    ("GraphChi-vE/BFS", "CUDA", "604920a6faa944391630390cf35449c8");
    ("GraphChi-vE/BFS", "CON", "07085832a3e238e5a669719f7b265ff0");
    ("GraphChi-vE/BFS", "SHARD", "d47882291f46db94524242ecec664b67");
    ("GraphChi-vE/BFS", "COAL", "24721af43155cca5cf50198450659733");
    ("GraphChi-vE/BFS", "TP", "596f4e17470f6021ad44e34ca1998a79");
    ("GraphChi-vE/BFS", "DYNA", "757aa664c689a3c917c5e4f9db0cc01d");
    ("GraphChi-vE/CC", "CUDA", "37818b13e3867e5de1e94005b282f7f3");
    ("GraphChi-vE/CC", "CON", "0c53c02a82b04ef4e261150de9754154");
    ("GraphChi-vE/CC", "SHARD", "98a8fa110a045319711b314c85989e57");
    ("GraphChi-vE/CC", "COAL", "5a427b90fb8efe80b608d7ffc24157f4");
    ("GraphChi-vE/CC", "TP", "55be252650d58d4c06a08aa824d84225");
    ("GraphChi-vE/CC", "DYNA", "8366ba3a4e4c2799585cbbf5989c4037");
    ("GraphChi-vE/PR", "CUDA", "de9bb57899f27bc2fa074c6ae5fba775");
    ("GraphChi-vE/PR", "CON", "95ce7ccbd17271f212004973ab476a86");
    ("GraphChi-vE/PR", "SHARD", "11271a79ec72ee9091afac7cc77d1429");
    ("GraphChi-vE/PR", "COAL", "e400ad78d119f03193772f0fac647946");
    ("GraphChi-vE/PR", "TP", "441eafd82122679d9bf12e28803e91a2");
    ("GraphChi-vE/PR", "DYNA", "56e94300b6756275e3fa93492cddb7ff");
    ("GraphChi-vEN/BFS", "CUDA", "88b0950791d9c1b9428812b44879b6d6");
    ("GraphChi-vEN/BFS", "CON", "d0ca8223e24683f88ce1d5b900ee3a3d");
    ("GraphChi-vEN/BFS", "SHARD", "2eb99047aa439802b7da0a11556cd354");
    ("GraphChi-vEN/BFS", "COAL", "c703e108f1aaa38cf3f6f0898b589185");
    ("GraphChi-vEN/BFS", "TP", "855492bdbcdc8512c566e91e26feb434");
    ("GraphChi-vEN/BFS", "DYNA", "2e9ff8e71f90b070467630f391c170ad");
    ("GraphChi-vEN/CC", "CUDA", "06b526a5efde4917b23770d52a77cec4");
    ("GraphChi-vEN/CC", "CON", "974ac94701b71d85b8559c699d692f84");
    ("GraphChi-vEN/CC", "SHARD", "8ec9bdb2cd0b96b91ec6754c581911b5");
    ("GraphChi-vEN/CC", "COAL", "3f6278dbc76d775316e7b023b9a8b3ae");
    ("GraphChi-vEN/CC", "TP", "3d5b858a978ff2986c5acbe361b64d5a");
    ("GraphChi-vEN/CC", "DYNA", "513826117eb7ea4e33cf4e04100375a6");
    ("GraphChi-vEN/PR", "CUDA", "cc9b3f8a950f9822b5c602a9cb991b65");
    ("GraphChi-vEN/PR", "CON", "00032f706201639f7845cc6b1ffec08b");
    ("GraphChi-vEN/PR", "SHARD", "42c8eaa0760a52ec0a75d4b063c050cb");
    ("GraphChi-vEN/PR", "COAL", "6e679d4c15a4f51d8780c72fdd3a508c");
    ("GraphChi-vEN/PR", "TP", "29a8c8831ef0048abdaa95249cdd17db");
    ("GraphChi-vEN/PR", "DYNA", "c7cbd5ccbc75751b7f0ea3c25a0bedb9");
    ("RAY/RAY", "CUDA", "fc8dd8378076be242db225b4348d2e2a");
    ("RAY/RAY", "CON", "e7af4764984e9740dc632818d49b28de");
    ("RAY/RAY", "SHARD", "1bb1ff86c97c1d3b5e3ae4ecbecd7643");
    ("RAY/RAY", "COAL", "1bb1ff86c97c1d3b5e3ae4ecbecd7643");
    ("RAY/RAY", "TP", "2c4b88bbfdcce403a02fe6e16e50817a");
    ("RAY/RAY", "DYNA", "235830ddf5c44f305e1fee954ad8d568");
  ]

let test_frozen_sweep_digests () =
  let sweep = Repro_experiments.Sweep.exec ~scale:0.02 () in
  let cells =
    List.concat_map
      (fun workload ->
        List.map
          (fun column ->
            let run =
              Repro_experiments.Sweep.get_column sweep ~workload ~column
            in
            (workload, Repro_experiments.Sweep.column_name column,
             W.Harness.digest run))
          (Repro_experiments.Sweep.columns sweep))
      (Repro_experiments.Sweep.workload_names sweep)
  in
  check Alcotest.int "cell count" (List.length frozen_sweep_digests)
    (List.length cells);
  List.iter2
    (fun (w, c, want) (w', c', got) ->
      check Alcotest.(pair string string) "cell order" (w, c) (w', c');
      check Alcotest.string (w ^ " " ^ c ^ " digest") want got)
    frozen_sweep_digests cells

let test_harness_rejects_functional_mismatch () =
  let p = W.Workload.default_params T.Shared_oa in
  match W.Harness.run_techniques treacherous_workload p [ T.Cuda; T.Coal ] with
  | _ -> Alcotest.fail "expected a functional-mismatch failure"
  | exception Failure msg ->
    check Alcotest.bool "mentions the mismatch" true
      (String.length msg > 0
       && String.sub msg 0 (min 7 (String.length msg)) = "Harness")

let test_harness_speedup_direction () =
  let w = Option.get (W.Registry.find "GEN") in
  let p = { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = 0.05 } in
  let runs = W.Harness.run_techniques w p [ T.Cuda; T.Shared_oa ] in
  match runs with
  | [ (_, cuda); (_, shard) ] ->
    check Alcotest.bool "SharedOA speeds GEN up" true
      (W.Harness.speedup_vs ~baseline:cuda shard > 1.)
  | _ -> Alcotest.fail "expected two runs"

let test_workload_scaled () =
  let p = { (W.Workload.default_params T.Cuda) with W.Workload.scale = 0.5 } in
  check Alcotest.int "halves" 50 (W.Workload.scaled p 100);
  let tiny = { p with W.Workload.scale = 0.0001 } in
  check Alcotest.int "floor of one" 1 (W.Workload.scaled tiny 100)

(* --- scheduler waves ------------------------------------------------------ *)

let test_residency_waves_complete () =
  (* Launch far more warps than the device can host at once; everything
     must still execute exactly once. *)
  let heap = Page_store.create () in
  let cfg = { Config.default with Config.n_sms = 2; max_warps_per_sm = 4 } in
  let device = Device.create ~config:cfg ~heap () in
  let space = Repro_mem.Address_space.create () in
  let arena = Repro_mem.Address_space.reserve space ~name:"out" ~size:(1 lsl 20) in
  let n_threads = 32 * 64 in
  Device.launch device ~n_threads (fun ctx ->
      let tids = Warp_ctx.tids ctx in
      let addrs = Array.map (fun t -> arena.Repro_mem.Address_space.base + (8 * t)) tids in
      Warp_ctx.store ctx ~label:Label.Body addrs (Array.map (fun t -> t + 1) tids));
  let sum = ref 0 in
  for t = 0 to n_threads - 1 do
    sum := !sum + Page_store.load heap (arena.Repro_mem.Address_space.base + (8 * t))
  done;
  check Alcotest.int "every thread ran once" (n_threads * (n_threads + 1) / 2) !sum

let test_cycles_accumulate_across_launches () =
  let heap = Page_store.create () in
  let device = Device.create ~heap () in
  let kernel ctx = Warp_ctx.compute ctx ~label:Label.Body in
  Device.launch device ~n_threads:64 kernel;
  let after_one = Stats.cycles (Device.stats device) in
  Device.launch device ~n_threads:64 kernel;
  check Alcotest.bool "cycles accumulate" true
    (Stats.cycles (Device.stats device) > after_one);
  check Alcotest.int "two launches" 2 (Device.launches device)

(* --- paper-level cross-workload properties -------------------------------- *)

let tiny p = { (W.Workload.default_params T.Shared_oa) with W.Workload.scale = p }

let test_ven_has_higher_pki_than_ve () =
  (* Virtualizing the vertices adds calls: vEN's call density must exceed
     vE's (Table 2: 52.2 vs 35.9 for BFS). *)
  let pki name =
    let w = Option.get (W.Registry.find name) in
    (W.Harness.run w (tiny 0.05)).W.Harness.vfunc_pki
  in
  check Alcotest.bool "vEN > vE (BFS)" true
    (pki "GraphChi-vEN/BFS" > pki "GraphChi-vE/BFS")

let test_traffic_progresses () =
  let w = Option.get (W.Registry.find "TRAF") in
  let total_distance iterations =
    let inst = w.W.Workload.build { (tiny 0.05) with W.Workload.iterations = Some iterations } in
    for i = 0 to inst.W.Workload.iterations - 1 do
      inst.W.Workload.run_iteration i
    done;
    let rt = inst.W.Workload.rt in
    let om = R.Runtime.object_model rt in
    let heap = R.Runtime.heap rt in
    Array.fold_left
      (fun acc (ptr, typ) ->
        if R.Registry.type_name typ = "Car" then
          acc + R.Object_model.field_load_host om heap ~ptr ~field:3
        else acc)
      0
      (R.Runtime.allocations rt)
  in
  let short = total_distance 3 and long = total_distance 10 in
  check Alcotest.bool "cars keep moving" true (long > short && short > 0)

let test_footprints_reflect_allocators () =
  (* The default-CUDA model's padding must reserve several times more
     space than SharedOA for the same population (Sec. 8.2's packing). *)
  let w = Option.get (W.Registry.find "GEN") in
  let reserved technique =
    let p =
      { (tiny 0.05) with W.Workload.technique = technique; chunk_objs = Some 256 }
    in
    let r = W.Harness.run w p in
    r.W.Harness.alloc_stats.R.Allocator.reserved_bytes
  in
  let cuda = reserved T.Cuda and shard = reserved T.Shared_oa in
  check Alcotest.bool "padding costs space" true (cuda > 3 * shard)

let test_tagged_pointers_never_reach_memory () =
  (* End-to-end guard: a full TypePointer workload run must never leak a
     tagged address into the page store (the MMU strip is total). This
     passes iff every access path strips. *)
  let w = Option.get (W.Registry.find "GraphChi-vE/BFS") in
  let r = W.Harness.run w { (tiny 0.05) with W.Workload.technique = T.type_pointer } in
  check Alcotest.bool "ran" true (r.W.Harness.cycles > 0.)

let test_v100_like_config_runs () =
  let heap = Page_store.create () in
  let device = Device.create ~config:Config.v100_like ~heap () in
  Device.launch device ~n_threads:(32 * 100) (fun ctx ->
      Warp_ctx.compute ctx ~label:Label.Body);
  check Alcotest.bool "big config works" true (Stats.cycles (Device.stats device) > 0.)

let test_config_validation () =
  let bad = { Config.default with Config.issue_width = 0 } in
  Alcotest.check_raises "invalid config"
    (Invalid_argument "Config: issue_width must be positive") (fun () ->
      Config.validate bad)

let suite =
  [
    Alcotest.test_case "harness rejects mismatch" `Quick
      test_harness_rejects_functional_mismatch;
    Alcotest.test_case "frozen sweep digests at scale 0.02" `Quick
      test_frozen_sweep_digests;
    Alcotest.test_case "harness speedup direction" `Quick test_harness_speedup_direction;
    Alcotest.test_case "workload scaled" `Quick test_workload_scaled;
    Alcotest.test_case "residency waves complete" `Quick test_residency_waves_complete;
    Alcotest.test_case "cycles accumulate" `Quick test_cycles_accumulate_across_launches;
    Alcotest.test_case "vEN pki > vE pki" `Quick test_ven_has_higher_pki_than_ve;
    Alcotest.test_case "traffic progresses" `Quick test_traffic_progresses;
    Alcotest.test_case "allocator footprints" `Quick test_footprints_reflect_allocators;
    Alcotest.test_case "tagged pointers stripped end-to-end" `Quick
      test_tagged_pointers_never_reach_memory;
    Alcotest.test_case "v100-like config" `Quick test_v100_like_config_runs;
    Alcotest.test_case "config validation" `Quick test_config_validation;
  ]
