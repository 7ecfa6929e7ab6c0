(* The simulator workloads: the Fig. 6 matrix run through
   [Executor.run], untranslated on two workers ([fig6]) or under the
   coalesce page policy one job at a time ([fig6_pages]). An operation
   is one cell. *)

module X = Repro_exec
module W = Repro_workloads
module E = Repro_experiments

type kind = {
  name : string;
  techniques : string list;  (* workload-major: one group per workload *)
  pages : string option;     (* page-size policy; None = no translation *)
  workers : int;
}

let scale = 0.25

let fig6 =
  { name = "fig6"; techniques = Stream.techniques; pages = None; workers = 2 }

(* A column on the CUDA allocator (never promotes pages), SharedOA's
   plain column and TypePointer (both promote): the columns the
   translation model treats differently, at a run length that fits. *)
let fig6_pages =
  { name = "fig6-pages"; techniques = [ "cuda"; "shard"; "tp" ];
    pages = Some "coalesce"; workers = 1 }

let now = Unix.gettimeofday

let resolve ?pages ~scale ~seed techniques =
  X.Request.Spec.matrix ~workloads:Stream.workloads ~techniques
    ~base:(X.Request.Spec.make ?pages ~scale ~seed ~workload:"" ~technique:"" ())
  |> List.map (fun spec ->
      match X.Request.Spec.resolve spec with
      | Ok job -> job
      | Error msg -> failwith msg)
  |> Array.of_list

let outcomes ~workers jobs =
  Array.of_list (X.Executor.run ~jobs:workers (Array.to_list jobs))

(* Setup: resolve the job list and run one tiny job per workload with
   the same page policy, so code and allocator paths are warm before the
   first timed pass. *)
let warm_scale = 0.05

let setup kind ~seed =
  let jobs = resolve ?pages:kind.pages ~scale ~seed kind.techniques in
  let warm = resolve ?pages:kind.pages ~scale:warm_scale ~seed [ "tp" ] in
  Array.iter
    (fun (o : X.Executor.outcome) -> ignore (X.Executor.ok_exn o))
    (outcomes ~workers:kind.workers warm);
  jobs

type pass = {
  wall : float;
  results : (W.Harness.run, string) result array;
  job_walls : float array;
}

let run_pass kind jobs =
  let t0 = now () in
  let outs = outcomes ~workers:kind.workers jobs in
  let wall = now () -. t0 in
  { wall;
    results = Array.map (fun (o : X.Executor.outcome) -> o.X.Executor.result) outs;
    job_walls = Array.map (fun (o : X.Executor.outcome) -> o.X.Executor.wall_s) outs }

(* Why each cell failed, if it did: it raised; it disagrees on checksum
   or result with the first healthy cell of its workload
   ([Harness.validate_equal]: every technique computes the same thing);
   or its Stats digest differs from [reference], the run's first pass. *)
let verify ~group ?reference results =
  let first_ok i =
    let base = i / group * group in
    List.find_map
      (fun j -> match results.(j) with Ok r -> Some r | Error _ -> None)
      (List.init group (fun k -> base + k))
  in
  Array.mapi
    (fun i r ->
      match r with
      | Error e -> Some e
      | Ok run -> (
        match W.Harness.validate_equal [ Option.get (first_ok i); run ] with
        | exception Failure m -> Some m
        | () -> (
          match reference with
          | Some d when d.(i) <> Cell.digest run ->
            Some (run.W.Harness.workload ^ ": Stats digest differs from the first pass")
          | _ -> None)))
    results

let tally_pass tally failures =
  Array.iter
    (fun f -> Tally.record tally (match f with None -> Ok () | Some reason -> Error reason))
    failures

let ok_runs results =
  Array.to_list results |> List.filter_map (function Ok r -> Some r | Error _ -> None)

let instructions results =
  List.fold_left (fun a r -> a + Cell.instructions r) 0 (ok_runs results)

(* Per-technique Fig. 6 geomeans (SharedOA cycles over the technique's,
   across workloads) and the mean |model / paper - 1| over the columns
   the paper reports besides SharedOA itself. *)
let geomeans kind (results : W.Harness.run array) =
  let names = List.map String.uppercase_ascii kind.techniques in
  let k = List.length names in
  let cycles w c = results.((w * k) + c).W.Harness.cycles in
  let shard = Option.get (List.find_index (String.equal "SHARD") names) in
  List.mapi
    (fun c name ->
      ( name,
        Repro_util.Mathx.geomean
          (List.init (Array.length results / k) (fun w -> cycles w shard /. cycles w c)) ))
    names

let gm_err gms =
  let errs =
    List.filter_map
      (fun (name, gm) ->
        if name = "SHARD" then None
        else
          Option.map
            (fun paper -> Float.abs ((gm /. paper) -. 1.))
            (List.assoc_opt name E.Expectations.fig6_geomean))
      gms
  in
  List.fold_left ( +. ) 0. errs /. float_of_int (List.length errs)

let print_accuracy ~label ~scale gms =
  Printf.printf
    "accuracy (%s, scale %g): Fig. 6 geomeans, performance normalized to \
     SharedOA; the reference is the paper's published values, the model is \
     unvalidated against hardware\n"
    label scale;
  List.iter
    (fun (name, gm) ->
      match List.assoc_opt name E.Expectations.fig6_geomean with
      | Some paper ->
        Printf.printf "  %-6s model %.4f  paper %.2f  model/paper %.4f\n" name gm
          paper (gm /. paper)
      | None -> Printf.printf "  %-6s model %.4f\n" name gm)
    gms;
  Printf.printf "  fig6_gm_err %.4f\n" (gm_err gms)

let setup_reps = 5

let sum = Array.fold_left ( +. ) 0.

(* Untraced: set up [setup_reps] times ([setup_s] is the median), then
   whole passes over the matrix until another would overrun [seconds].
   For the end-to-end metrics a request is one pass, the whole matrix a
   sweep user waits for: rates and memory are medians over passes, and
   a pass with a failed cell is a failed request. *)
let run kind ~seed ~seconds tally =
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let jobs = setup kind ~seed in
        (now () -. t0, jobs))
  in
  let jobs = snd (List.hd setups) in
  let group = List.length kind.techniques in
  let start = now () in
  let rec passes acc reference =
    Rss.reset ();
    let p = run_pass kind jobs in
    let peak = Rss.peak_mb () in
    let failures = verify ~group ?reference p.results in
    tally_pass tally failures;
    let reference =
      match reference with
      | Some d -> Some d
      | None ->
        Some (Array.map (function Ok r -> Cell.digest r | Error _ -> "") p.results)
    in
    let acc = (p, peak, Array.for_all Option.is_none failures) :: acc in
    let elapsed = now () -. start in
    let mean = elapsed /. float_of_int (List.length acc) in
    if elapsed +. mean <= seconds then passes acc reference else List.rev acc
  in
  let ps = passes [] None in
  let first, _, _ = List.hd ps in
  let latency =
    Pct.summarize
      (Array.of_list (List.map (fun (p, _, ok) -> if ok then p.wall else infinity) ps))
  in
  Printf.printf "%s: scale %g, %d cells, %d worker(s), %d pass(es) in %.2f s\n"
    kind.name scale (Array.length jobs) kind.workers (List.length ps)
    (now () -. start);
  Printf.printf "setup (s): %s\n"
    (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) setups));
  Array.iteri
    (fun i r ->
      match r with
      | Ok r ->
        Printf.printf "cell %-26s %-5s cycles %.0f digest %s\n" r.W.Harness.workload
          (X.Job.column_name jobs.(i)) r.W.Harness.cycles (Cell.digest r)
      | Error e -> Printf.printf "cell %s failed: %s\n" (X.Job.label jobs.(i)) e)
    first.results;
  List.iteri
    (fun i (p, peak, _) ->
      let cells = Pct.summarize (Array.map (fun w -> w *. 1e3) p.job_walls) in
      Printf.printf "pass %d: %.3f s, peak %.1f MB, cell ms %s\n" i p.wall peak
        (Pct.describe cells))
    ps;
  let gm =
    if Array.for_all Result.is_ok first.results then begin
      let gms = geomeans kind (Array.of_list (ok_runs first.results)) in
      print_accuracy ~label:kind.name ~scale gms;
      gm_err gms
    end
    else Float.max_float
  in
  let per_pass f = Pct.median (List.map f ps) in
  let completed = List.length (List.filter (fun (_, _, ok) -> ok) ps) in
  [
    ("setup_s", Pct.median (List.map fst setups), "s");
    ( "sim_minstr_per_s",
      per_pass (fun (p, _, _) -> float_of_int (instructions p.results) /. p.wall /. 1e6),
      "Minstr/s" );
    ("peak_rss_mb", per_pass (fun (_, peak, _) -> peak), "MB");
    ("fig6_gm_err", gm, "ratio");
    ("req_p50_ms", Pct.finite latency.Pct.p50 *. 1e3, "ms");
    ("req_p99_ms", Pct.finite latency.Pct.tail *. 1e3, "ms");
    ( "req_per_s",
      float_of_int completed /. List.fold_left (fun a (p, _, _) -> a +. p.wall) 0. ps,
      "1/s" );
  ]

(* Serial instrumented pass: every cell through [Cell.measure]; with
   [retain], each is re-timed offline and must match the device. *)
let measured_pass ~retain ~group ?reference jobs tally =
  let s = Cell.sums () in
  let cells =
    Array.map
      (fun job -> try Ok (Cell.measure ~retain job) with e -> Error (Printexc.to_string e))
      jobs
  in
  let failures =
    verify ~group ?reference
      (Array.map (Result.map (fun (c : Cell.t) -> c.Cell.run)) cells)
  in
  Array.iteri
    (fun i c ->
      Tally.record tally
        (match (c, failures.(i)) with
         | _, Some reason | Error reason, None -> Error reason
         | Ok c, None -> (
           Cell.add s c;
           match c.Cell.replay with
           | Some { Cell.identical = false; _ } ->
             Error (X.Job.label jobs.(i) ^ ": offline Sm.run_fused replay differs from the device")
           | _ -> Ok ())))
    cells;
  s

(* Traced: one pass as the untraced run makes it (busy fraction), a
   serial untraced pass (the reference for the tracing overhead), then
   the serial instrumented pass; under translation, also the
   untranslated twin of the same cells with offline replay, whose
   emission/replay split and loop time give [vm.extra_s] by
   difference. *)
let traced kind ~seed tally =
  let jobs = setup kind ~seed in
  let group = List.length kind.techniques in
  let p = run_pass kind jobs in
  let failures = verify ~group p.results in
  tally_pass tally failures;
  let reference = Array.map (function Ok r -> Cell.digest r | Error _ -> "") p.results in
  let busy = sum p.job_walls /. (float_of_int kind.workers *. p.wall) in
  let serial_s =
    if kind.workers = 1 then sum p.job_walls
    else begin
      let s = run_pass { kind with workers = 1 } jobs in
      tally_pass tally (verify ~group ~reference s.results);
      sum s.job_walls
    end
  in
  let main = measured_pass ~retain:(kind.pages = None) ~group ~reference jobs tally in
  let twin =
    match kind.pages with
    | None -> None
    | Some _ ->
      Some (measured_pass ~retain:true ~group (resolve ~scale ~seed kind.techniques) tally)
  in
  Printf.printf
    "%s traced: untraced serial jobs %.2f s, instrumented %.2f s, offline \
     replays %.2f s, replay divergences %d\n"
    kind.name serial_s main.Cell.wall
    (Option.value twin ~default:main).Cell.replay
    (Option.value twin ~default:main).Cell.diverged;
  Cell.layer_metrics ?twin main
  @ [ ("exec.busy_frac", busy, "ratio");
      ("obs.trace_overhead_pct", 100. *. (main.Cell.wall -. serial_s) /. serial_s, "%") ]
