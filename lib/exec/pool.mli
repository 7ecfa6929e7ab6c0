(** A bounded worker pool over OCaml 5 domains with deterministic result
    ordering.

    Work items are pulled from a shared atomic counter, so completion
    order is arbitrary, but every result is written back to its input
    index: the output array always lines up with the input array
    regardless of scheduling. One item raising is captured as [Error]
    in its own slot and never disturbs its siblings. *)

val available_workers : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val map : jobs:int -> f:('a -> 'b) -> 'a array -> ('b, exn) result array
(** [map ~jobs ~f inputs] applies [f] to every input on at most [jobs]
    domains (clamped to [1 .. length inputs]). With [jobs = 1] everything
    runs sequentially on the calling domain — bit-for-bit the behaviour
    of [Array.map f inputs], with exceptions captured per element. While
    the workers run, the pool holds [jobs - 1] tokens of
    {!Repro_util.Spare_cores} (a device starts a replay lane only on a
    free one); results do not depend on it. *)
