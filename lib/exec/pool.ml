let available_workers () = Domain.recommended_domain_count ()

let guarded f x = try Ok (f x) with e -> Error e

let map ~jobs ~f inputs =
  let n = Array.length inputs in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then Array.map (guarded f) inputs
  else begin
    let results = Array.make n (Error Exit) in
    let next = Atomic.make 0 in
    (* Distinct domains only ever write distinct slots, so the result
       array needs no lock; the joins publish the writes. *)
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- guarded f inputs.(i);
          loop ()
        end
      in
      loop ()
    in
    (* The extra workers occupy [jobs - 1] spare cores while they run,
       so the jobs' devices do not start replay lanes on them. *)
    Repro_util.Spare_cores.hold (jobs - 1) (fun () ->
        let spawned = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
        worker ();
        Array.iter Domain.join spawned);
    results
  end
