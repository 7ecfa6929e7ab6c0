(** The process-wide spare-core budget.

    One token stands for one core that no domain is using. The budget
    starts at [Domain.recommended_domain_count () - 1] (the calling
    domain has the remaining core). Code that runs extra domains for a
    while {!hold}s their count, and code that would like a helper domain
    but can do without one ({!Repro_gpu.Device}'s replay lane) asks for
    a single token with {!try_take} and {!give}s it back when its domain
    exits. Holders may overdraw the budget (a pool asked for more
    workers than there are cores), which only means that nobody finds a
    free token until they are done. *)

val initial : int
(** [Domain.recommended_domain_count () - 1], at least [0]. *)

val available : unit -> int
(** Tokens free right now (negative while holders overdraw). *)

val hold : int -> (unit -> 'a) -> 'a
(** [hold n f] takes [n] tokens for the duration of [f] and returns them
    when [f] returns or raises. A negative [n] lends [-n] tokens instead:
    tests use it to make a spare core appear on a one-core host. *)

val try_take : unit -> bool
(** Take one token if one is free. *)

val give : unit -> unit
(** Return a token taken with {!try_take}. *)
