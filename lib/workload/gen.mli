(** Deterministic random generation helpers for workloads.

    Thin wrapper over [Random.State] so every generator takes an explicit
    seed and experiments are reproducible.

    Which [Random.State] draws each helper makes, and in what order, is
    part of the seed contract: a seed names the same workload only while
    it is kept. [flip], [geometric] and [poisson] read the stream of
    [Random.State.float t 1.0], one draw per trial ([geometric] and
    [poisson] stop at the same trial as the recursive definitions they
    replaced), and allocate nothing. *)

type t

val create : seed:int -> t

(** Uniform in [0, bound). *)
val int : t -> int -> int

(** Uniform in [lo, hi] inclusive. *)
val int_range : t -> lo:int -> hi:int -> int

val float : t -> float -> float

(** True with probability [p]. *)
val flip : t -> p:float -> bool

(** Geometric with success probability [p]: number of failures before the
    first success, in [0, cap]. Draws once per trial, none once [cap]
    failures are reached. *)
val geometric : t -> p:float -> cap:int -> int

(** Poisson-distributed count with mean [lambda] (Knuth's method), capped
    at [cap]: draws until the running product of the draws falls to
    [exp (-. lambda)] or [cap + 1] draws are made. *)
val poisson : t -> lambda:float -> cap:int -> int

(** [poisson_draws t ~lambda ~cap] is [fun () -> poisson t ~lambda ~cap]
    with [exp (-. lambda)] computed once: the same counts from the same
    draws, for a rate that many draws share. *)
val poisson_draws : t -> lambda:float -> cap:int -> unit -> int

(** Uniformly chosen element. @raise Invalid_argument on []. *)
val choice : t -> 'a list -> 'a

(** Random power of two in [2^lo, 2^hi]. *)
val pow2_range : t -> lo:int -> hi:int -> int

(** Zipf-like weight for rank [r] (1-based) with exponent [s]. *)
val zipf_weight : rank:int -> s:float -> float
