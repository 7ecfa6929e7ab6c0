(* The serve workload: an in-process daemon ([Server.start], default
   config, at most two worker domains) driven closed-loop by two client
   connections replaying the seeded {!Stream}. An operation is one
   request, timed by the client from send to final response. Every
   pool-spec result the daemon returns must equal the in-process run of
   the same spec made before setup. *)

module X = Repro_exec
module O = Repro_obs
module W = Repro_workloads

let clients = 2
let timeout_s = 60.
let now = Unix.gettimeofday

(* The daemon's request stages ([Svc_metrics.stage_names] less the
   end-to-end "request"), each reported as p50 and tail. *)
let stages = [ "decode"; "queued"; "dedup_wait"; "cache_probe"; "run"; "encode" ]

type daemon = {
  handle : X.Server.handle;
  socket : string;
  cache_dir : string;
  workers : int;
}

let start ~dir ~tag ~obs ?runner () =
  let socket = Filename.concat dir (tag ^ ".sock") in
  let cache_dir = Filename.concat dir (tag ^ ".cache") in
  let workers = min 2 (X.Server.default_config ()).X.Server.workers in
  let cfg = { X.Server.socket_path = socket; workers; cache = true; cache_dir; obs } in
  { handle = X.Server.start ?runner cfg; socket; cache_dir; workers }

let stop d =
  X.Server.stop d.handle;
  ignore (X.Cache.clear ~dir:d.cache_dir);
  (try Sys.rmdir d.cache_dir with Sys_error _ -> ());
  try Sys.remove d.socket with Sys_error _ -> ()

let connect d =
  let c = X.Server.Client.connect d.socket in
  X.Server.Client.set_timeout c timeout_s;
  c

(* Submit a batch and collect its outcomes by index until [Batch_done]. *)
let submit c ~id specs =
  X.Server.Client.send c (X.Request.Submit { id; cache = true; specs });
  let outs = Array.make (List.length specs) None in
  let rec drain () =
    match X.Server.Client.recv c with
    | Ok (X.Response.Job_done { id = j; index; outcome }) when j = id ->
      outs.(index) <- Some outcome;
      drain ()
    | Ok (X.Response.Batch_done { id = j; _ }) when j = id -> Ok outs
    | Ok (X.Response.Error { message }) -> Error message
    | Ok _ -> drain ()
    | Error e -> Error e
  in
  drain ()

let submit_one c ~id spec =
  match submit c ~id [ spec ] with
  | Ok [| Some { X.Response.result = Error e; _ } |] -> Error e
  | Ok [| Some o |] -> Ok o
  | Ok _ -> Error "batch finished without its result"
  | Error e -> Error e

let request c req =
  X.Server.Client.send c req;
  X.Server.Client.recv c

let server_stats d =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> X.Server.Client.close c)
    (fun () ->
      match request c X.Request.Stats with
      | Ok (X.Response.Server_stats s) -> s
      | _ -> failwith "serve: no stats from the daemon")

(* The pool's in-process results, which every served pool result must
   equal. *)
type reference = {
  pool : X.Request.Spec.t array;
  runs : W.Harness.run array;
  digests : string array;
}

let reference ~seed =
  let pool = Stream.pool ~seed in
  let jobs =
    Array.map
      (fun s -> match X.Request.Spec.resolve s with Ok j -> j | Error m -> failwith m)
      pool
  in
  let runs = Array.map X.Executor.ok_exn (Sim.outcomes ~workers:2 jobs) in
  { pool; runs; digests = Array.map Cell.digest runs }

let check_pool ref_ i (r : W.Harness.run) =
  if Cell.digest r = ref_.digests.(i) then Ok ()
  else
    Error (X.Request.Spec.label ref_.pool.(i) ^ ": served result differs from the in-process run")

(* Setup: daemon up on a fresh cache directory, the whole pool submitted
   once so the cache holds every repeat spec. *)
let setup ~dir ~tag ~obs ?runner ref_ =
  let d = start ~dir ~tag ~obs ?runner () in
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> X.Server.Client.close c)
    (fun () ->
      match submit c ~id:"warm" (Array.to_list ref_.pool) with
      | Error e -> failwith ("serve warm-up: " ^ e)
      | Ok outs ->
        Array.iteri
          (fun i o ->
            match o with
            | Some { X.Response.result = Ok r; _ } -> (
              match check_pool ref_ i r with Ok () -> () | Error m -> failwith m)
            | Some { X.Response.result = Error e; _ } -> failwith e
            | None -> failwith "serve warm-up: missing result")
          outs);
  d

(* The timed phase is cut into [windows] equal windows by completion
   time. Rates, memory and latency percentiles are medians of per-window
   values, so a burst of host noise moves one window, not the result. *)
type window = {
  tally : Tally.t;         (* this window's requests, with latencies *)
  mutable run_instrs : int;
  mutable run_s : float;   (* daemon execution time of never-seen specs *)
  mutable peak_mb : float;
  mutable len : float;
}

type phase = { wall : float; windows : window array }

let windows = 5

(* Two closed-loop clients until [seconds] pass. A failed request (error
   response, wrong result, timeout) is tallied as failed at infinite
   latency and its connection is replaced. *)
let drive d ~seed ~seconds ref_ tally =
  let lock = Mutex.create () in
  let locked f = Mutex.lock lock; Fun.protect ~finally:(fun () -> Mutex.unlock lock) f in
  let ws =
    Array.init windows (fun _ ->
        { tally = Tally.create (); run_instrs = 0; run_s = 0.; peak_mb = 0.;
          len = seconds /. float_of_int windows })
  in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let window_at t =
    ws.(min (windows - 1) (int_of_float ((t -. t0) /. seconds *. float_of_int windows)))
  in
  let perform c ~id = function
    | Stream.Pool i -> Result.bind (submit_one c ~id ref_.pool.(i)) (fun o ->
        Result.bind o.X.Response.result (check_pool ref_ i))
    | Stream.Novel spec -> (
      match submit_one c ~id spec with
      | Ok { X.Response.result = Ok r; cached = false; deduped = false; wall_s; _ } ->
        let w = window_at (now ()) in
        locked (fun () ->
            w.run_instrs <- w.run_instrs + Cell.instructions r;
            w.run_s <- w.run_s +. wall_s);
        Ok ()
      | Ok _ -> Error (X.Request.Spec.label spec ^ ": a never-seen spec did not run")
      | Error e -> Error e)
    | Stream.Query i -> (
      match request c (X.Request.Query ref_.pool.(i)) with
      | Ok (X.Response.Queried { hit = true; run = Some r }) -> check_pool ref_ i r
      | Ok (X.Response.Queried _) -> Error "warm pool spec missed the cache"
      | Ok (X.Response.Error { message }) -> Error message
      | Ok _ -> Error "unexpected response to query"
      | Error e -> Error e)
    | Stream.Stats -> (
      match request c X.Request.Stats with
      | Ok (X.Response.Server_stats _) -> Ok ()
      | Ok _ -> Error "unexpected response to stats"
      | Error e -> Error e)
  in
  let client client =
    let next = Stream.client ~seed ~client in
    let c = ref (connect d) in
    let k = ref 0 in
    while now () < deadline do
      let op = next () in
      incr k;
      let id = Printf.sprintf "c%d-%d" client !k in
      let s0 = now () in
      let r = try perform !c ~id op with e -> Error (Printexc.to_string e) in
      let s1 = now () in
      Tally.record tally r;
      Tally.record ~latency_s:(s1 -. s0) (window_at s1).tally r;
      match r with
      | Ok () -> ()
      | Error _ ->
        X.Server.Client.close !c;
        c := connect d
    done;
    X.Server.Client.close !c
  in
  let threads = List.init clients (Thread.create client) in
  Array.iteri
    (fun i w ->
      Rss.reset ();
      Thread.delay (Float.max 0. (t0 +. (float_of_int (i + 1) *. w.len) -. now ()));
      w.peak_mb <- Rss.peak_mb ())
    ws;
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  ws.(windows - 1).len <- wall -. (float_of_int (windows - 1) *. seconds /. float_of_int windows);
  { wall; windows = ws }

let completed w = Tally.attempted w.tally - Tally.failed w.tally

let per_s p =
  float_of_int (Array.fold_left (fun a w -> a + completed w) 0 p.windows) /. p.wall

let median_over p f = Pct.median (Array.to_list (Array.map f p.windows))

let with_workdir f =
  let root = ".perfbench_work" in
  (try Sys.mkdir root 0o755 with Sys_error _ -> ());
  let dir = Filename.concat root (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.rmdir dir with Sys_error _ -> ());
      try Sys.rmdir root with Sys_error _ -> ())
    (fun () -> f dir)

let run ~seed ~seconds tally =
  with_workdir (fun dir ->
      let ref_ = reference ~seed in
      let setups =
        List.init Sim.setup_reps (fun rep ->
            let t0 = now () in
            let d = setup ~dir ~tag:(Printf.sprintf "e2e%d" rep) ~obs:X.Server.obs_off ref_ in
            let s = now () -. t0 in
            if rep < Sim.setup_reps - 1 then stop d;
            (s, d))
      in
      let d = snd (List.nth setups (Sim.setup_reps - 1)) in
      let p =
        Fun.protect ~finally:(fun () -> stop d) (fun () -> drive d ~seed ~seconds ref_ tally)
      in
      Printf.printf "setup (s): %s\n"
        (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%.4f" s) setups));
      let lat = Array.map (fun w -> Pct.summarize (Tally.latencies w.tally)) p.windows in
      Printf.printf "serve: %d clients, %d workers, %d requests in %.2f s, %d failed\n"
        clients d.workers (Tally.attempted tally) p.wall (Tally.failed tally);
      Array.iteri
        (fun i (l : Pct.t) ->
          Printf.printf "window %d: %.1f req/s, peak %.1f MB, latency ms %s\n" i
            (float_of_int (completed p.windows.(i)) /. p.windows.(i).len)
            p.windows.(i).peak_mb
            (Pct.describe { l with Pct.p50 = l.Pct.p50 *. 1e3; tail = l.Pct.tail *. 1e3 }))
        lat;
      let gms = Sim.geomeans Sim.fig6 ref_.runs in
      Sim.print_accuracy ~label:"serve pool" ~scale:Stream.scale gms;
      let all =
        Pct.summarize
          (Array.concat (Array.to_list (Array.map (fun w -> Tally.latencies w.tally) p.windows)))
      in
      Printf.printf "request latency (ms), whole phase: %s\n"
        (Pct.describe { all with Pct.p50 = all.Pct.p50 *. 1e3; tail = all.Pct.tail *. 1e3 });
      let window_ms f =
        Pct.median (Array.to_list (Array.map (fun l -> Pct.finite (f l) *. 1e3) lat))
      in
      [
        ("setup_s", Pct.median (List.map fst setups), "s");
        ( "sim_minstr_per_s",
          median_over p (fun w -> Cell.ratio (float_of_int w.run_instrs) w.run_s /. 1e6),
          "Minstr/s" );
        ("peak_rss_mb", median_over p (fun w -> w.peak_mb), "MB");
        ("fig6_gm_err", Sim.gm_err gms, "ratio");
        ("req_p50_ms", window_ms (fun l -> l.Pct.p50), "ms");
        ("req_p99_ms", window_ms (fun l -> l.Pct.tail), "ms");
        ("req_per_s", median_over p (fun w -> float_of_int (completed w) /. w.len), "1/s");
      ])

(* A stage's p50 and tail over the requests of one phase: bucket counts
   after minus before, read at the upper bound of the bucket holding the
   rank; the tail follows {!Pct}'s rule on the phase's sample count. *)
let stage_quantiles ~before ~after name =
  let hist (s : X.Response.server_stats) = List.assoc_opt name s.X.Response.stages in
  let count h i = match h with Some h -> O.Hist.bucket_count h i | None -> 0 in
  let b = hist before and a = hist after in
  let counts = Array.init O.Hist.buckets (fun i -> count a i - count b i) in
  let n = Array.fold_left ( + ) 0 counts in
  let at rank =
    let rec go i acc =
      let acc = acc + counts.(i) in
      if acc >= rank || i = O.Hist.buckets - 1 then i else go (i + 1) acc
    in
    let lo, hi = O.Hist.bucket_bounds (go 0 0) in
    1e3 *. if Float.is_finite hi then hi else lo
  in
  if n = 0 then (0., 0.) else (at (Pct.rank n 50. + 1), at (Pct.tail_index n + 1))

(* Traced: an untraced phase and a traced phase of [seconds / 2] each,
   each on its own warmed daemon. The traced daemon runs with metrics
   and spans on ([Server.obs_default]) and a runner that measures every
   job layer by layer, retains its traces and replays them offline; a
   replay that differs from the device fails that request. *)
let traced ~seed ~seconds tally =
  with_workdir (fun dir ->
      let ref_ = reference ~seed in
      let half = seconds /. 2. in
      let d = setup ~dir ~tag:"untraced" ~obs:X.Server.obs_off ref_ in
      let untraced =
        Fun.protect ~finally:(fun () -> stop d) (fun () -> drive d ~seed ~seconds:half ref_ tally)
      in
      let lock = Mutex.create () in
      let sums = ref (Cell.sums ()) in
      let runner job =
        let c = Cell.measure ~retain:true job in
        Mutex.lock lock;
        Cell.add !sums c;
        Mutex.unlock lock;
        match c.Cell.replay with
        | Some { Cell.identical = false; _ } ->
          Error (X.Job.label job ^ ": offline Sm.run_fused replay differs from the device")
        | _ -> Ok c.Cell.run
      in
      let d = setup ~dir ~tag:"traced" ~obs:(X.Server.obs_default ()) ~runner ref_ in
      let before, p, after =
        Fun.protect ~finally:(fun () -> stop d) (fun () ->
            Mutex.lock lock;
            sums := Cell.sums ();
            Mutex.unlock lock;
            let before = server_stats d in
            let p = drive d ~seed ~seconds:half ref_ tally in
            (before, p, server_stats d))
      in
      let delta f = f after - f before in
      let submitted = delta (fun s -> s.X.Response.submitted) in
      let served = delta (fun s -> s.X.Response.dedup_hits + s.X.Response.cache_hits) in
      let busy_s (s : X.Response.server_stats) =
        match s.X.Response.svc with Some v -> v.O.Svc_metrics.s_worker_busy_s | None -> 0.
      in
      Printf.printf
        "serve traced: untraced %.1f req/s, traced %.1f req/s, %d jobs measured, \
         replay divergences %d\n"
        (per_s untraced) (per_s p) !sums.Cell.jobs !sums.Cell.diverged;
      Cell.layer_metrics !sums
      @ [
          ( "exec.busy_frac",
            (busy_s after -. busy_s before) /. (float_of_int d.workers *. p.wall),
            "ratio" );
        ]
      @ List.concat_map
          (fun stage ->
            let p50, tail = stage_quantiles ~before ~after stage in
            [
              ("exec." ^ stage ^ "_p50_ms", p50, "ms");
              ("exec." ^ stage ^ "_p99_ms", tail, "ms");
            ])
          stages
      @ [
          ( "exec.served_without_run",
            Cell.ratio (float_of_int served) (float_of_int submitted),
            "ratio" );
          ("obs.trace_overhead_pct", 100. *. ((per_s untraced /. per_s p) -. 1.), "%");
        ])
