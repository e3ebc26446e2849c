(** Per-call work counts of the simplex solver {!Sparse} (surfaced
    through [Problem.solve ?metrics]).

    Each [solve] call {e adds} its counts to the record it is handed, so
    one record can aggregate a whole batch.  An "iteration" is a pricing
    pass that found an improving candidate and did work — a pivot, a
    bound flip, or a numerical refactorize-and-retry; the [max_iters]
    budget counts exactly these. *)

type t = {
  mutable iterations : int;  (** Budgeted work passes (see above). *)
  mutable pivots : int;  (** Basis changes. *)
  mutable bound_flips : int;  (** Nonbasic jumps between bounds. *)
  mutable refactorizations : int;
      (** Eta-file rebuilds (scheduled and defensive). *)
}

val create : unit -> t
(** All-zero record. *)
