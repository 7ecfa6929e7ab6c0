(* Tests for the shadow-heap sanitizer and the cross-technique dispatch
   oracle. *)

module San = Repro_san
module Violation = San.Violation
module Shadow_heap = San.Shadow_heap
module Mutation = San.Mutation
module Oracle = San.Oracle
module Checker = San.Checker
module Vaddr = Repro_mem.Vaddr
module T = Repro_core.Technique
module W = Repro_workloads
module X = Repro_exec

let check = Alcotest.check

(* --- violation kinds --------------------------------------------------- *)

let test_violation_kinds () =
  check Alcotest.int "kind count" (List.length Violation.kinds)
    Violation.kind_count;
  List.iteri
    (fun i k ->
      check Alcotest.int "index round-trip" i (Violation.kind_index k);
      check Alcotest.bool "of_index round-trip" true
        (Violation.kind_of_index i = k))
    Violation.kinds;
  let slugs = List.map Violation.kind_slug Violation.kinds in
  check Alcotest.int "slugs unique" (List.length slugs)
    (List.length (List.sort_uniq compare slugs))

(* --- shadow heap ------------------------------------------------------- *)

let test_shadow_register_find () =
  let sh = Shadow_heap.create () in
  Shadow_heap.register sh ~base:0x1000 ~size:64 ~type_id:3;
  Shadow_heap.register sh ~base:0x2000 ~size:32 ~type_id:5;
  check Alcotest.int "allocations" 2 (Shadow_heap.n_allocations sh);
  (match Shadow_heap.find sh 0x1010 with
   | Some r ->
     check Alcotest.int "type" 3 r.Shadow_heap.type_id;
     check Alcotest.int "index" 0 r.Shadow_heap.index
   | None -> Alcotest.fail "interior address not found");
  (match Shadow_heap.find sh (Vaddr.with_tag 0x2000 ~tag:7) with
   | Some r -> check Alcotest.int "tagged lookup strips" 5 r.Shadow_heap.type_id
   | None -> Alcotest.fail "tagged address not found");
  check Alcotest.bool "gap not found" true (Shadow_heap.find sh 0x1800 = None);
  check Alcotest.bool "one past end" true (Shadow_heap.find sh 0x1040 = None);
  Alcotest.check_raises "non-canonical base"
    (Invalid_argument "Shadow_heap.register_parts: non-canonical base")
    (fun () ->
      Shadow_heap.register sh ~base:(Vaddr.with_tag 0x3000 ~tag:1) ~size:8
        ~type_id:0);
  Alcotest.check_raises "non-positive size"
    (Invalid_argument "Shadow_heap.register_parts: size must be positive")
    (fun () -> Shadow_heap.register sh ~base:0x3000 ~size:0 ~type_id:0)

let test_shadow_classify () =
  let sh = Shadow_heap.create () in
  Shadow_heap.add_heap_range sh ~base:0x1000 ~size:0x1000;
  Shadow_heap.register sh ~base:0x1100 ~size:64 ~type_id:1;
  let classify addr width = Shadow_heap.classify sh ~addr ~width in
  (match classify 0x1100 8 with
   | Shadow_heap.Object _ -> ()
   | _ -> Alcotest.fail "base should be a live object");
  (match classify 0x1138 8 with
   | Shadow_heap.Object _ -> ()
   | _ -> Alcotest.fail "last word should be inside");
  (match classify 0x113c 8 with
   | Shadow_heap.Clipped _ -> ()
   | _ -> Alcotest.fail "straddling the end should clip");
  (match classify 0x1000 8 with
   | Shadow_heap.Heap_hole -> ()
   | _ -> Alcotest.fail "arena outside any allocation is a hole");
  (match classify 0x9000 8 with
   | Shadow_heap.Unmodelled -> ()
   | _ -> Alcotest.fail "outside every range is unmodelled");
  Shadow_heap.kill sh ~base:0x1100;
  (match classify 0x1100 8 with
   | Shadow_heap.Dead _ -> ()
   | _ -> Alcotest.fail "killed allocation should classify dead")

let test_shadow_mutations () =
  (* Truncate shrinks the checked extent of the victim to one word. *)
  let sh = Shadow_heap.create ~mutation:(Mutation.Truncate { victim = 0 }) () in
  Shadow_heap.register sh ~base:0x1000 ~size:64 ~type_id:0;
  (match Shadow_heap.classify sh ~addr:0x1008 ~width:8 with
   | Shadow_heap.Clipped _ -> ()
   | _ -> Alcotest.fail "truncated victim: second word should clip");
  (match Shadow_heap.classify sh ~addr:0x1000 ~width:8 with
   | Shadow_heap.Object _ -> ()
   | _ -> Alcotest.fail "truncated victim: first word stays valid");
  (* Kill marks the victim dead at registration. *)
  let sh = Shadow_heap.create ~mutation:(Mutation.Kill { victim = 1 }) () in
  Shadow_heap.register sh ~base:0x1000 ~size:8 ~type_id:0;
  Shadow_heap.register sh ~base:0x2000 ~size:8 ~type_id:0;
  (match Shadow_heap.classify sh ~addr:0x2000 ~width:8 with
   | Shadow_heap.Dead _ -> ()
   | _ -> Alcotest.fail "victim 1 should be dead");
  (match Shadow_heap.classify sh ~addr:0x1000 ~width:8 with
   | Shadow_heap.Object _ -> ()
   | _ -> Alcotest.fail "victim 0 should be alive");
  (* Retag records a wrong tag from the victim onward. *)
  let sh = Shadow_heap.create ~mutation:(Mutation.Retag { victim = 1 }) () in
  Shadow_heap.register sh ~base:0x1000 ~size:8 ~type_id:0;
  Shadow_heap.register sh ~base:0x2000 ~size:8 ~type_id:0;
  Shadow_heap.note_tag sh ~base:0x1000 ~tag:6;
  Shadow_heap.note_tag sh ~base:0x2000 ~tag:6;
  let tag_at base =
    match Shadow_heap.find sh base with
    | Some r -> r.Shadow_heap.tag
    | None -> -1
  in
  check Alcotest.int "pre-victim tag intact" 6 (tag_at 0x1000);
  check Alcotest.int "victim tag corrupted" 7 (tag_at 0x2000)

let test_mutation_parsing () =
  check Alcotest.bool "tag" true
    (Mutation.of_string "tag" = Ok (Mutation.Retag { victim = 0 }));
  check Alcotest.bool "region" true
    (Mutation.of_string "REGION" = Ok (Mutation.Truncate { victim = 0 }));
  check Alcotest.bool "uaf" true
    (Mutation.of_string "uaf" = Ok (Mutation.Kill { victim = 0 }));
  check Alcotest.bool "range" true
    (Mutation.of_string "range" = Ok Mutation.Skew_range);
  check Alcotest.bool "unknown rejected" true
    (Result.is_error (Mutation.of_string "bogus"));
  List.iter
    (fun name ->
      match Mutation.of_string name with
      | Ok m -> check Alcotest.string "name round-trip" name (Mutation.to_string m)
      | Error e -> Alcotest.fail e)
    Mutation.names

(* --- oracle ------------------------------------------------------------ *)

let shadow_with_objs bases =
  let sh = Shadow_heap.create () in
  List.iter (fun base -> Shadow_heap.register sh ~base ~size:16 ~type_id:0) bases;
  sh

let test_oracle_agreement () =
  (* Two techniques place the same logical objects at different
     addresses; identical targets over identical allocation indices must
     produce identical digest streams. *)
  let sh_a = shadow_with_objs [ 0x1000; 0x2000 ] in
  let sh_b = shadow_with_objs [ 0x7000; 0x9000 ] in
  let a = Oracle.create () and b = Oracle.create () in
  Oracle.record a ~shadow:sh_a ~warp:0 ~tids:[| 0; 1 |] ~objs:[| 0x1000; 0x2000 |]
    ~targets:[| 3; 4 |];
  Oracle.record b ~shadow:sh_b ~warp:0 ~tids:[| 0; 1 |] ~objs:[| 0x7000; 0x9000 |]
    ~targets:[| 3; 4 |];
  check Alcotest.bool "same stream" true (Oracle.diff ~reference:a b = None)

let test_oracle_divergence () =
  let sh = shadow_with_objs [ 0x1000; 0x2000 ] in
  let reference = Oracle.create () and actual = Oracle.create () in
  let record o targets =
    Oracle.record o ~shadow:sh ~warp:0 ~tids:[| 0; 1 |]
      ~objs:[| 0x1000; 0x2000 |] ~targets
  in
  record reference [| 3; 4 |];
  record reference [| 3; 4 |];
  record actual [| 3; 4 |];
  record actual [| 3; 5 |];
  (match Oracle.diff ~reference actual with
   | Some (Oracle.Target_mismatch { index }) ->
     check Alcotest.int "first divergence" 1 index
   | _ -> Alcotest.fail "expected a target mismatch");
  record reference [| 3; 4 |];
  (* actual is now shorter: 3 reference dispatches vs 2. *)
  let shorter = Oracle.create () in
  record shorter [| 3; 4 |];
  (match Oracle.diff ~reference shorter with
   | Some (Oracle.Length_mismatch { reference = nr; actual = na }) ->
     check Alcotest.int "reference length" 3 nr;
     check Alcotest.int "actual length" 1 na
   | _ -> Alcotest.fail "expected a length mismatch")

let test_oracle_capture () =
  let sh = shadow_with_objs [ 0x1000; 0x2000 ] in
  let o = Oracle.create ~capture:1 () in
  let record targets =
    Oracle.record o ~shadow:sh ~warp:7 ~tids:[| 4; 5 |]
      ~objs:[| 0x2000; 0x1000 |] ~targets
  in
  record [| 1; 2 |];
  check Alcotest.bool "not yet captured" true (Oracle.captured o = None);
  record [| 8; 9 |];
  match Oracle.captured o with
  | None -> Alcotest.fail "dispatch 1 should have been captured"
  | Some d ->
    check Alcotest.int "warp" 7 d.Oracle.warp;
    check Alcotest.bool "alloc indices" true (d.Oracle.alloc_idx = [| 1; 0 |]);
    check Alcotest.bool "targets" true (d.Oracle.targets = [| 8; 9 |]);
    let other =
      { d with Oracle.targets = [| 8; 3 |] }
    in
    let text = Oracle.describe_details ~reference:d other in
    check Alcotest.bool "context names the lane" true
      (String.length text > 0)

(* --- checker ----------------------------------------------------------- *)

let test_checker_detections () =
  let c = Checker.create ~tags_expected:false () in
  let sh = Checker.shadow c in
  Shadow_heap.add_heap_range sh ~base:0x1000 ~size:0x1000;
  Shadow_heap.register sh ~base:0x1100 ~size:64 ~type_id:1;
  let access ?(access = Checker.Other) ?(width = 8) addrs =
    Checker.check_access c ~warp:0 ~tids:[| 0 |] ~access ~what:"test" ~width
      ~addrs
  in
  access [| 0x1100 |];
  check Alcotest.int "clean access" 0 (Checker.total c);
  access [| 0x1000 |];
  check Alcotest.int "heap hole -> oob" 1 (Checker.count c Violation.Out_of_bounds);
  access [| 0x113c |];
  check Alcotest.int "clipped -> oob" 2 (Checker.count c Violation.Out_of_bounds);
  access [| Vaddr.with_tag 0x1100 ~tag:3 |];
  check Alcotest.int "tag on non-TP MMU" 1 (Checker.count c Violation.Non_canonical);
  access ~access:Checker.Vtable [| 0x1104 |];
  check Alcotest.int "misaligned vtable" 1
    (Checker.count c Violation.Misaligned_vtable);
  Shadow_heap.kill sh ~base:0x1100;
  access [| 0x1100 |];
  check Alcotest.int "use after free" 1 (Checker.count c Violation.Use_after_free);
  check Alcotest.int "total" 5 (Checker.total c);
  check Alcotest.int "samples retained" 5 (List.length (Checker.samples c));
  (* The kernel delta drains and zeroes. *)
  let delta = Checker.take_kernel_delta c in
  check Alcotest.int "delta total" 5 (Array.fold_left ( + ) 0 delta);
  let delta' = Checker.take_kernel_delta c in
  check Alcotest.int "drained" 0 (Array.fold_left ( + ) 0 delta')

let test_checker_tag_integrity () =
  let c = Checker.create ~tags_expected:true () in
  let sh = Checker.shadow c in
  Shadow_heap.register sh ~base:0x1000 ~size:16 ~type_id:0;
  Shadow_heap.note_tag sh ~base:0x1000 ~tag:5;
  Checker.check_tagged_ptrs c ~warp:0 ~tids:[| 0 |]
    ~ptrs:[| Vaddr.with_tag 0x1000 ~tag:5 |];
  check Alcotest.int "matching tag" 0 (Checker.total c);
  Checker.check_tagged_ptrs c ~warp:0 ~tids:[| 0 |]
    ~ptrs:[| Vaddr.with_tag 0x1000 ~tag:9 |];
  check Alcotest.int "mismatching tag" 1 (Checker.count c Violation.Tag_mismatch)

(* The batch entry points check exactly the first [n] lanes of a
   scratch buffer that may be wider than the warp, and report what the
   exact-width [Warp_ctx.load] reports for the same addresses. *)
let test_checker_scratch_buffer () =
  let module Warp_ctx = Repro_gpu.Warp_ctx in
  let module Label = Repro_gpu.Label in
  let setup () =
    let c = Checker.create ~tags_expected:false () in
    let sh = Checker.shadow c in
    Shadow_heap.add_heap_range sh ~base:0x1000 ~size:0x1000;
    Shadow_heap.register sh ~base:0x1100 ~size:64 ~type_id:1;
    let ctx =
      Warp_ctx.create ~san:c ~heap:(Repro_mem.Page_store.create ())
        ~warp_id:0 ~lanes:[| 0; 1 |] ()
    in
    (c, ctx)
  in
  let kinds c =
    List.map (fun k -> (Violation.kind_slug k, Checker.count c k)) Violation.kinds
  in
  (* 0x1000 is a heap hole: out of bounds. *)
  let c, ctx = setup () in
  ignore
    (Warp_ctx.load_into ctx ~label:Label.Body ~blocking:true
       ~addrs:[| 0x1100; 0x1108; 0x1000; 0x1000 |] ~n:2);
  Warp_ctx.store_from ctx ~label:Label.Body
    ~addrs:[| 0x1100; 0x1108; 0x1000 |] ~n:2 [| 1; 2 |];
  check Alcotest.int "lanes past n unchecked" 0 (Checker.total c);
  let c, ctx = setup () in
  ignore
    (Warp_ctx.load_into ctx ~label:Label.Body ~blocking:true
       ~addrs:[| 0x1100; 0x1000; 0x1108; 0x1108 |] ~n:2);
  check Alcotest.int "one violation inside n" 1 (Checker.total c);
  let reference, ctx = setup () in
  ignore (Warp_ctx.load ctx ~label:Label.Body [| 0x1100; 0x1000 |]);
  check
    Alcotest.(list (pair string int))
    "same kind as Warp_ctx.load" (kinds reference) (kinds c)

(* --- device integration: violations land in Stats ---------------------- *)

let test_stats_san_counters () =
  let stats = Repro_gpu.Stats.create () in
  let delta = Array.make Violation.kind_count 0 in
  delta.(Violation.kind_index Violation.Out_of_bounds) <- 3;
  Repro_gpu.Stats.count_san_violations stats delta;
  Repro_gpu.Stats.count_san_violations stats delta;
  check Alcotest.int "accumulates" 6
    (Repro_gpu.Stats.san_violations_for stats Violation.Out_of_bounds);
  check Alcotest.int "total" 6 (Repro_gpu.Stats.total_san_violations stats);
  Repro_gpu.Stats.reset stats;
  check Alcotest.int "reset" 0 (Repro_gpu.Stats.total_san_violations stats)

(* --- check driver ------------------------------------------------------ *)

let traf () = Option.get (W.Registry.find "traf")

let check_params =
  { (W.Workload.default_params T.Cuda) with W.Workload.scale = 0.02 }

let test_check_clean () =
  let reports = X.Check.run ~params:check_params [ traf () ] in
  check Alcotest.bool "all five techniques clean" true (X.Check.all_clean reports);
  match reports with
  | [ r ] ->
    check Alcotest.int "five techniques" (List.length T.all_paper)
      (List.length r.X.Check.techniques);
    List.iter
      (fun (tr : X.Check.technique_report) ->
        check Alcotest.bool "dispatches recorded" true (tr.X.Check.dispatches > 0))
      r.X.Check.techniques
  | _ -> Alcotest.fail "one workload, one report"

let count_for (tr : X.Check.technique_report) kind =
  tr.X.Check.counts.(Violation.kind_index kind)

let report_for reports technique =
  match reports with
  | [ r ] ->
    List.find
      (fun (tr : X.Check.technique_report) -> T.equal tr.X.Check.technique technique)
      r.X.Check.techniques
  | _ -> Alcotest.fail "one workload, one report"

let run_mutation name =
  let mutation =
    match Mutation.of_string name with Ok m -> m | Error e -> Alcotest.fail e
  in
  X.Check.run ~mutation ~params:check_params [ traf () ]

let test_check_catches_tag () =
  let reports = run_mutation "tag" in
  check Alcotest.bool "not clean" false (X.Check.all_clean reports);
  let tp = report_for reports T.type_pointer in
  check Alcotest.bool "TP tag mismatches" true
    (count_for tp Violation.Tag_mismatch > 0);
  (* Untagged techniques cannot see a tag bug. *)
  let cuda = report_for reports T.Cuda in
  check Alcotest.bool "CUDA unaffected" true (X.Check.technique_clean cuda)

let test_check_catches_region () =
  let reports = run_mutation "region" in
  let cuda = report_for reports T.Cuda in
  check Alcotest.bool "oob fires" true
    (count_for cuda Violation.Out_of_bounds > 0)

let test_check_catches_uaf () =
  let reports = run_mutation "uaf" in
  let cuda = report_for reports T.Cuda in
  check Alcotest.bool "uaf fires" true
    (count_for cuda Violation.Use_after_free > 0)

let test_check_catches_range_skew () =
  let reports = run_mutation "range" in
  let coal = report_for reports T.Coal in
  (match coal.X.Check.divergence with
   | Some d ->
     check Alcotest.bool "first diverging dispatch identified" true
       (d.X.Check.index <> None);
     check Alcotest.bool "lane context recovered" true (d.X.Check.context <> None)
   | None -> Alcotest.fail "COAL must diverge from CUDA under range skew");
  (* The corruption is COAL-only: everything else still matches CUDA. *)
  let tp = report_for reports T.type_pointer in
  check Alcotest.bool "TP still clean" true (X.Check.technique_clean tp)

let suite =
  [
    Alcotest.test_case "violation kinds" `Quick test_violation_kinds;
    Alcotest.test_case "shadow register/find" `Quick test_shadow_register_find;
    Alcotest.test_case "shadow classify" `Quick test_shadow_classify;
    Alcotest.test_case "shadow mutations" `Quick test_shadow_mutations;
    Alcotest.test_case "mutation parsing" `Quick test_mutation_parsing;
    Alcotest.test_case "oracle agreement" `Quick test_oracle_agreement;
    Alcotest.test_case "oracle divergence" `Quick test_oracle_divergence;
    Alcotest.test_case "oracle capture" `Quick test_oracle_capture;
    Alcotest.test_case "checker detections" `Quick test_checker_detections;
    Alcotest.test_case "checker tag integrity" `Quick test_checker_tag_integrity;
    Alcotest.test_case "checker on scratch buffers" `Quick
      test_checker_scratch_buffer;
    Alcotest.test_case "stats san counters" `Quick test_stats_san_counters;
    Alcotest.test_case "check: clean matrix" `Quick test_check_clean;
    Alcotest.test_case "check: tag mutation caught" `Quick test_check_catches_tag;
    Alcotest.test_case "check: region mutation caught" `Quick
      test_check_catches_region;
    Alcotest.test_case "check: uaf mutation caught" `Quick test_check_catches_uaf;
    Alcotest.test_case "check: range skew caught by oracle" `Quick
      test_check_catches_range_skew;
  ]
