(** The serving-layer admission gate: declared demand vs configured
    supply.

    Configured by [rrs serve --admission SPEC] (an [rrs-spec/1] file,
    see {!Rrs_workload.Demand}): the spec's deployment size [n] (or the
    analytically sized minimum when the spec carries none) times its
    [speed] is the supply budget, tracked in {e milli-jobs per round}
    (mjpr) so rational per-color rates aggregate in exact integer
    arithmetic.

    Two checks guard an [open] (and a [feed] re-declaration) that
    carries a {!Wire.decl}:

    - {b session}: the declared rates must be analytically feasible for
      the session's {e own} configuration ([n], [delta], bounds, speed)
      per {!Rrs_analysis.Capacity} — otherwise the session would drop
      its own jobs no matter what the rest of the deployment does;
    - {b aggregate}: the sum of admitted declared rates must stay within
      the deployment supply — otherwise the new session would eat into
      budgets already promised to admitted sessions.

    In [Enforce] mode a violation draws {!Wire.Admission_reject} (the
    reply names the binding constraint) and, for an [open], leaves no
    session state; in [Warn] mode it is admitted anyway and logged.
    Undeclared sessions bypass the gate (demand 0) — the gate prices
    declared work, it does not refuse legacy clients. *)

type mode = Off | Warn | Enforce

val mode_of_string : string -> (mode, string) result
val mode_to_string : mode -> string

(** A violated constraint, mirrored onto {!Wire.Admission_reject}. *)
type reject = {
  r_color : int; (* binding color; -1 = aggregate supply *)
  r_demand : int;
  r_supply : int;
  r_message : string;
}

(** Structural validation of a declaration against the session's color
    count: rate per color, positive denominator, non-negative rates and
    bursts, bursts either absent or per color. *)
val validate_decl : colors:int -> Wire.decl -> (unit, string) result

(** Aggregate declared demand of one declaration, milli-jobs/round
    (per-color ceilings, so the gate never under-counts). *)
val decl_mjpr : Wire.decl -> int

(** The per-session analytic check: are the declared rates feasible for
    a session configured with [n]/[delta]/[bounds]/[speed]? The reject
    names the binding color (or the impossibility). Returns [Ok ()] for
    declarations the capacity model cannot even build (invalid
    delta/speed) — session creation surfaces those as config errors. *)
val check_session :
  session:string -> delta:int -> bounds:int array -> n:int -> speed:int ->
  Wire.decl -> (unit, reject) result

(** The aggregate gate, one per server. It has no lock: like the
    sessions it prices, it is owned by the server's {!Event_loop}. *)
type t

val create : mode:mode -> supply_mjpr:int -> t
val mode : t -> mode
val supply_mjpr : t -> int
val demand_mjpr : t -> int

(** Admitted sessions currently holding a declared budget. *)
val sessions : t -> int

(** [try_admit t ~session ~mjpr] reserves [mjpr] for the session
    (replacing any previous reservation — a re-declaration adjusts, it
    does not double-count). [Error] (nothing reserved) when the new
    aggregate would exceed the supply. *)
val try_admit : t -> session:string -> mjpr:int -> (unit, reject) result

(** Reserve unconditionally ([Warn] mode, and restore-time
    re-admission of already-running sessions). *)
val force_admit : t -> session:string -> mjpr:int -> unit

(** Release a session's reservation (close, or a failed open). *)
val release : t -> session:string -> unit

(** {2 Gate counters} (for the metrics plane) *)

val note_rejected_open : t -> unit
val note_policed : t -> jobs:int -> unit
val rejected_opens : t -> int
val policed_feeds : t -> int
val policed_jobs : t -> int
