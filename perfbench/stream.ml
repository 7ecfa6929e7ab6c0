(* The serve workload's inputs, generated from the benchmark seed: a pool
   of repeat specs (the Fig. 6 matrix at a small scale, warmed into the
   daemon's cache during setup) and, per client, an endless request
   stream mixing pool submits, submits of never-seen specs, cache
   queries and stats probes. The daemon receives only these specs. *)

module X = Repro_exec
module W = Repro_workloads
module Rng = Repro_util.Rng

type op =
  | Pool of int                  (* submit pool spec [i] *)
  | Novel of X.Request.Spec.t    (* submit a spec no one asked for before *)
  | Query of int                 (* cache query for pool spec [i] *)
  | Stats

let scale = 0.02
let techniques = [ "cuda"; "con"; "shard"; "coal"; "tp" ]
let workloads = List.map W.Registry.qualified_name W.Registry.all

let pool ~seed =
  X.Request.Spec.matrix ~workloads ~techniques
    ~base:(X.Request.Spec.make ~scale ~seed ~workload:"" ~technique:"" ())
  |> Array.of_list

(* Seeds of novel specs: far above any pool seed (seeds are below
   [max_seed]) and distinct per client and per draw, so every one is a
   cache miss that must really run. *)
let max_seed = 1_000_000

(* Any integer seed, as given on the command line, folded into
   [0, max_seed): seeds already in range are kept as they are. *)
let fold_seed n = ((n mod max_seed) + max_seed) mod max_seed

let novel_seed ~seed ~client k =
  ((seed + 1) * 1_000_000_000) + (client * 1_000_000) + k

(* Per 100 ops: 10 stats probes, 10 queries, 80 submits of which 8 are
   novel — about 1 submit in 10 runs a job, the rest are served by the
   cache or by dedup. Novel specs walk the matrix's cells in a seeded
   order, reshuffled each round, so every run misses on the same mix of
   cells and only their order and input seeds follow the seed. *)
let client ~seed ~client:c =
  if seed < 0 || seed >= max_seed then invalid_arg "Stream.client: seed";
  let rng = Rng.create ~seed:((seed * 1_000_003) + c) in
  let cells =
    Array.of_list
      (List.concat_map (fun w -> List.map (fun t -> (w, t)) techniques) workloads)
  in
  let n_pool = Array.length cells in
  let novel = ref 0 in
  fun () ->
    let r = Rng.int rng 100 in
    if r < 10 then Stats
    else if r < 20 then Query (Rng.int rng n_pool)
    else if r < 28 then begin
      if !novel mod n_pool = 0 then Rng.shuffle rng cells;
      let workload, technique = cells.(!novel mod n_pool) in
      incr novel;
      Novel
        (X.Request.Spec.make ~scale ~seed:(novel_seed ~seed ~client:c !novel)
           ~workload ~technique ())
    end
    else Pool (Rng.int rng n_pool)
