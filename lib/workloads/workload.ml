type params = {
  technique : Repro_core.Technique.t;
  alloc : Repro_core.Alloc_family.t option;
  scale : float;
  config : Repro_gpu.Config.t option;
  chunk_objs : int option;
  iterations : int option;
  seed : int;
  san : Repro_san.Checker.t option;
  telemetry : Repro_gpu.Telemetry.config option;
  pages : Repro_vm.Policy.t option;
}

(* The repo-wide default sweep scale. One constant shared by every
   job-construction surface — `repro sweep`, `repro submit`/the wire
   decoder's absent-field default, and the CLI's -s help — so a bare
   sweep and a bare submit are the same run. 0.25 of the reduced config
   keeps the default CI-cheap; pass --scale 1.0 for paper-scale runs. *)
let default_scale = 0.25

let default_params technique =
  { technique; alloc = None; scale = 1.0; config = None; chunk_objs = None;
    iterations = None; seed = 42; san = None; telemetry = None; pages = None }

type instance = {
  rt : Repro_core.Runtime.t;
  iterations : int;
  run_iteration : int -> unit;
  result : unit -> int;
}

type t = {
  name : string;
  suite : string;
  description : string;
  paper_objects : int;
  paper_types : int;
  build : params -> instance;
}

(* A device replays on a spare core while the next launch emits, so the
   last launch may still be replaying when the last iteration returns.
   Waiting for it there keeps the job's kernel phase (the iterations)
   covering all of its emission and replay, as a clock around the
   iterations expects. *)
let settle_last_iteration w =
  {
    w with
    build =
      (fun p ->
        let inst = w.build p in
        {
          inst with
          run_iteration =
            (fun i ->
              inst.run_iteration i;
              if i = inst.iterations - 1 then Repro_core.Runtime.sync inst.rt);
        });
  }

let scaled params n = max 1 (int_of_float (Float.round (float_of_int n *. params.scale)))
