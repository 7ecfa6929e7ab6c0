(* Integration tests over the figure harness: a tiny sweep must produce
   the paper's qualitative shapes. These are the repository's smoke
   alarms — if a change flips who wins, they go off. *)

module E = Repro_experiments
module W = Repro_workloads
module T = Repro_core.Technique
module A = Repro_core.Alloc_family

let check = Alcotest.check

(* A small but non-trivial sweep shared by the shape tests: two memory-
   bound apps plus RAY (the converged outlier). *)
(* Built through the parallel executor (j = 2) — identical to a serial
   sweep by the determinism guarantee, which test_exec checks directly. *)
let sweep =
  lazy
    (let workloads =
       List.filter_map W.Registry.find [ "GOL"; "GraphChi-vE/CC"; "RAY" ]
     in
     E.Sweep.exec ~scale:0.08 ~iterations:2 ~j:2 ~workloads ())

let geomean points series = E.Figview.geomean_of points ~series

let test_sweep_contents () =
  let s = Lazy.force sweep in
  check Alcotest.int "3 workloads x 6 columns" 18 (List.length (E.Sweep.runs s));
  check Alcotest.int "names" 3 (List.length (E.Sweep.workload_names s));
  check Alcotest.int "5 distinct techniques" 5
    (List.length (E.Sweep.techniques s));
  let r = E.Sweep.get s ~workload:"Dynasoar/GOL" ~technique:T.Cuda in
  check Alcotest.bool "lookup works" true (r.W.Harness.cycles > 0.);
  (* [get ~technique] must keep finding the paper's default-family run,
     not the DYNA column (also technique = Cuda). *)
  check Alcotest.bool "default-family lookup" true
    (A.equal r.W.Harness.alloc A.Cuda);
  let d =
    E.Sweep.get_column s ~workload:"Dynasoar/GOL"
      ~column:(E.Sweep.column ~alloc:A.Dyna_soa T.Cuda)
  in
  check Alcotest.bool "dyna column present" true
    (A.equal d.W.Harness.alloc A.Dyna_soa);
  check Alcotest.bool "dyna column is a distinct run" true
    (d.W.Harness.cycles > 0. && d.W.Harness.cycles <> r.W.Harness.cycles)

(* Ordered [Job.key] lists of the job matrices, as MD5s, at scale 0.02.
   Recorded from the code that built each matrix by hand before
   [Sweep.jobs] was the one builder (the CLI's sweep spec list, its
   --alloc variant, Fig. 11's private job list): the same keys in the
   same order mean the same runs and the same cache entries. *)
let frozen_matrix_keys =
  let dyna = E.Sweep.over_family A.Dyna_soa in
  let coalesce = Repro_vm.Policy.Coalesce in
  [
    ("default", 66, None, E.Sweep.default_columns,
     "131e05be50dba336a1a03e0186a07514");
    ("--alloc dyna", 55, None, dyna, "33c5aaef897deb47eabd1e1c65cc572d");
    ("fig11", 33, None, E.Fig11.columns, "5c058713456b3338ac0b6ae03b6c0d95");
    ("default --pages coalesce", 66, Some coalesce, E.Sweep.default_columns,
     "b8e1e7a70072b555ee34573ab4c0a0af");
    ("--alloc dyna --pages coalesce", 55, Some coalesce, dyna,
     "3d47c25afe6ea75a2dcb5f9094c6c6f8");
  ]

let test_frozen_matrix_keys () =
  List.iter
    (fun (name, n, pages, columns, want) ->
      let keys =
        List.map Repro_exec.Job.key (E.Sweep.jobs ~scale:0.02 ?pages ~columns ())
      in
      check Alcotest.int (name ^ ": job count") n (List.length keys);
      check Alcotest.string (name ^ ": key digest") want
        (Digest.to_hex (Digest.string (String.concat "\n" keys))))
    frozen_matrix_keys

(* Every job of the matrix carries the seed and iteration count it was
   asked for: [repro submit --all --seed 7 -i 2] sends exactly these. *)
let test_matrix_carries_seed_and_iterations () =
  let jobs = E.Sweep.jobs ~scale:0.02 ~seed:7 ~iterations:2 () in
  check Alcotest.int "66 jobs" 66 (List.length jobs);
  List.iter
    (fun job ->
      let key = Repro_exec.Job.key job in
      let fields = String.split_on_char '|' key in
      check Alcotest.bool (key ^ " carries seed 7 and 2 iterations") true
        (List.mem "seed=7" fields && List.mem "iters=2" fields))
    jobs

let test_fig6_shape () =
  let points = E.Fig6.points (Lazy.force sweep) in
  let gm name = geomean points name in
  check (Alcotest.float 1e-9) "SharedOA is the baseline" 1.0 (gm "SHARD");
  check Alcotest.bool "CUDA slower than SharedOA" true (gm "CUDA" < 1.0);
  check Alcotest.bool "TP at least SharedOA" true (gm "TP" >= 0.98);
  check Alcotest.bool "TP beats CUDA" true (gm "TP" > gm "CUDA");
  check Alcotest.bool "COAL beats CUDA" true (gm "COAL" > gm "CUDA")

let test_fig7_shape () =
  let points = E.Fig7.points (Lazy.force sweep) in
  let avg name = geomean points name in
  check (Alcotest.float 0.01) "CUDA instr count = SharedOA" 1.0 (avg "CUDA");
  check Alcotest.bool "COAL adds the most instructions" true
    (avg "COAL" > avg "CON" && avg "COAL" > 1.2);
  check Alcotest.bool "Concord adds instructions" true (avg "CON" > 1.0);
  check Alcotest.bool "TP adds instructions (prototype strips)" true (avg "TP" > 1.0);
  (* The breakdown rows sum to the totals. *)
  List.iter
    (fun (workload, rows) ->
      List.iter
        (fun (tech, (m, c, k)) ->
          let total =
            List.find
              (fun (p : Repro_report.Series.point) ->
                p.Repro_report.Series.group = workload
                && p.Repro_report.Series.series = tech)
              points
          in
          check (Alcotest.float 1e-6) "breakdown sums" total.Repro_report.Series.value
            (m +. c +. k))
        rows)
    (E.Fig7.breakdown (Lazy.force sweep))

let test_fig8_shape () =
  let points = E.Fig8.points (Lazy.force sweep) in
  check Alcotest.bool "TP issues the fewest load transactions" true
    (geomean points "TP" <= geomean points "SHARD");
  check Alcotest.bool "COAL saves transactions vs SharedOA" true
    (geomean points "COAL" <= geomean points "SHARD" +. 0.02)

let test_fig9_shape () =
  let points = E.Fig9.points (Lazy.force sweep) in
  List.iter
    (fun (p : Repro_report.Series.point) ->
      check Alcotest.bool "hit rate in [0,1]" true
        (p.Repro_report.Series.value >= 0. && p.Repro_report.Series.value <= 1.))
    points;
  (* Packing gives SharedOA a better L1 than the default allocator on the
     memory-bound apps (GOL here). *)
  let v tech = Repro_report.Series.value points ~group:"GOL" ~series:tech in
  check Alcotest.bool "SharedOA L1 beats CUDA on GOL" true (v "SHARD" > v "CUDA")

let test_fig1b_shape () =
  let b = E.Fig1b.average (Lazy.force sweep) in
  check Alcotest.bool "shares sum to 1" true
    (abs_float (b.E.Fig1b.vtable_share +. b.E.Fig1b.vfunc_share +. b.E.Fig1b.call_share -. 1.)
     < 1e-6);
  check Alcotest.bool "the vTable* load dominates (paper: 87%)" true
    (b.E.Fig1b.vtable_share > 0.5)

let test_table1_measured () =
  let rows = E.Table1.measure (Lazy.force sweep) in
  let find name = List.find (fun (m : E.Table1.measured) -> m.E.Table1.technique = name) rows in
  let cuda = find "CUDA" and coal = find "COAL" and tp = find "TP" in
  check Alcotest.bool "CUDA's A is object-proportional (diverged)" true
    (cuda.E.Table1.get_vtable_per_kcall > 1000.);
  check Alcotest.bool "COAL's lookup is type-proportional (coalesced)" true
    (coal.E.Table1.get_vtable_per_kcall < cuda.E.Table1.get_vtable_per_kcall /. 2.);
  check (Alcotest.float 1e-9) "TP needs zero accesses for the type" 0.
    tp.E.Table1.get_vtable_per_kcall

let test_table2_rows () =
  let rows = E.Table2.rows (Lazy.force sweep) in
  check Alcotest.int "three rows" 3 (List.length rows);
  List.iter
    (fun (r : E.Table2.row) ->
      check Alcotest.bool "objects positive" true (r.E.Table2.objects > 0);
      check Alcotest.bool "types plausible" true (r.E.Table2.types >= 3 && r.E.Table2.types <= 6);
      check Alcotest.bool "pki positive" true (r.E.Table2.vfunc_pki > 0.))
    rows

let test_fig10_chunk_sweep () =
  let gol = Option.get (W.Registry.find "GOL") in
  let points = E.Fig10.run ~scale:0.05 ~workloads:[ gol ] () in
  check Alcotest.int "one point per chunk size" (List.length E.Fig10.chunk_sizes)
    (List.length points);
  List.iter
    (fun (p : E.Fig10.point) ->
      check Alcotest.bool "perf positive" true (p.E.Fig10.perf_vs_cuda > 0.);
      check Alcotest.bool "fragmentation in [0,1)" true
        (p.E.Fig10.fragmentation >= 0. && p.E.Fig10.fragmentation < 1.))
    points;
  (* Fragmentation grows with the chunk size (Fig. 10b's trend). *)
  let frag c =
    (List.find (fun (p : E.Fig10.point) -> p.E.Fig10.chunk_objs = c) points)
      .E.Fig10.fragmentation
  in
  check Alcotest.bool "bigger chunks waste more" true
    (frag 131072 >= frag 512)

let test_fig11_tp_on_cuda () =
  let ge = Option.get (W.Registry.find "GraphChi-vEN/CC") in
  let points = E.Fig11.points ~scale:0.08 ~workloads:[ ge ] () in
  let v = Repro_report.Series.value points ~group:"GM" ~series:"TP/CUDA" in
  check Alcotest.bool "TypePointer helps without changing the allocator" true (v > 1.0)

let test_fig12_shapes () =
  (* A small object sweep: virtual dispatch must cost over BRANCH, and
     TypePointer must close most of the gap (Fig. 12a). *)
  let points =
    E.Fig12.sweep_for_test ~configs:[ (8192, 4); (32768, 4) ]
  in
  let at variant n =
    (List.find
       (fun (p : E.Fig12.point) -> p.E.Fig12.variant = variant && p.E.Fig12.n_objects = n)
       points)
      .E.Fig12.norm_time
  in
  check Alcotest.bool "CUDA slowest at scale" true
    (at "CUDA" 32768 > at "TP" 32768 && at "CUDA" 32768 > at "BRANCH" 32768);
  check Alcotest.bool "TP between branch and CUDA" true
    (at "TP" 32768 >= at "BRANCH" 32768);
  check Alcotest.bool "slowdown grows with objects" true
    (at "CUDA" 32768 > at "CUDA" 8192)

let test_init_speedup () =
  let gol = Option.get (W.Registry.find "GOL") in
  let rows = E.Init_bench.run ~scale:0.05 ~workloads:[ gol ] () in
  check (Alcotest.float 1e-6) "the 80x initialization gap" 80.
    (E.Init_bench.geomean_speedup rows)

let test_ablation_encoding_free () =
  let row = E.Ablation.tp_encoding ~n_objects:4096 ~n_types:4 () in
  check Alcotest.bool "padded-index tags cost (almost) nothing" true
    (abs_float row.E.Ablation.delta < 0.05)

let test_expectations_present () =
  (* The recorded paper numbers stay self-consistent. *)
  check Alcotest.int "five fig6 entries" 5 (List.length E.Expectations.fig6_geomean);
  check (Alcotest.float 1e-9) "fig11 target" 1.18 E.Expectations.fig11_geomean;
  check Alcotest.bool "fig1b share" true (E.Expectations.fig1b_vtable_share > 0.8)

let suite =
  [
    Alcotest.test_case "frozen matrix job keys" `Quick test_frozen_matrix_keys;
    Alcotest.test_case "matrix carries seed and iterations" `Quick
      test_matrix_carries_seed_and_iterations;
    Alcotest.test_case "sweep contents" `Slow test_sweep_contents;
    Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
    Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
    Alcotest.test_case "fig8 shape" `Slow test_fig8_shape;
    Alcotest.test_case "fig9 shape" `Slow test_fig9_shape;
    Alcotest.test_case "fig1b shape" `Slow test_fig1b_shape;
    Alcotest.test_case "table1 measured" `Slow test_table1_measured;
    Alcotest.test_case "table2 rows" `Slow test_table2_rows;
    Alcotest.test_case "fig10 chunk sweep" `Slow test_fig10_chunk_sweep;
    Alcotest.test_case "fig11 tp on cuda" `Slow test_fig11_tp_on_cuda;
    Alcotest.test_case "fig12 shapes" `Slow test_fig12_shapes;
    Alcotest.test_case "init speedup" `Quick test_init_speedup;
    Alcotest.test_case "ablation: tag encoding free" `Quick test_ablation_encoding_free;
    Alcotest.test_case "expectations recorded" `Quick test_expectations_present;
  ]
