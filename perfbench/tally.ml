(* Operation accounting, shared by client threads. Every operation
   attempted is recorded once, as a success or as a failure with a
   reason. Latencies are kept when the caller has one; a failure's
   latency is [infinity] (it misses every limit, see {!Pct}). *)

type t = {
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : float list;  (* seconds *)
  mutable reasons : string list;   (* newest first, at most [keep] *)
}

let keep = 8

let create () =
  { lock = Mutex.create (); attempted = 0; failed = 0; latencies = [];
    reasons = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record ?latency_s t r =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      (match r with
       | Ok () -> ()
       | Error reason ->
         t.failed <- t.failed + 1;
         if List.length t.reasons < keep then t.reasons <- reason :: t.reasons);
      match latency_s with
      | Some l -> t.latencies <- (if Result.is_ok r then l else infinity) :: t.latencies
      | None -> ())

let attempted t = locked t (fun () -> t.attempted)
let failed t = locked t (fun () -> t.failed)
let reasons t = locked t (fun () -> List.rev t.reasons)
let latencies t = locked t (fun () -> Array.of_list t.latencies)
