(** The linear solver behind every MNA system: sparse Gilbert-Peierls
    LU ({!Sparse}) under a minimum-degree symmetric permutation
    ({!Sparse.amd_order}) computed once per pattern.

    Callers drive it through the stamp life cycle: {!create} hands back
    each pattern location's stable {e slot}, then per iteration
    [clear], accumulate values into slots, and [solve] — with no
    per-iteration matrix allocation.  The permutation is internal: slots, residuals,
    solutions and {!Singular} all use the caller's original unknown
    numbering. *)

exception Singular of int
(** Raised by {!solve}: the original unknown (equivalently, MNA row)
    at which the factorisation found no nonzero pivot. *)

type t

val create : int -> int array -> int array -> t * int array
(** [create n rows cols] orders and allocates an [n x n] system whose
    writable locations are the pairs [(rows.(k), cols.(k))]
    (duplicates allowed), and returns it with each location's slot:
    entry [k] of the second result is [slot t rows.(k) cols.(k)]. *)

val clone : t -> t
(** A second numeric workspace over the same structure: the
    permutation and the CSR pattern are shared, so every slot of the
    original is valid on the clone; values, the LU workspace and the
    scratch vectors are fresh.  The MNA compile cache hands each hit a
    clone of its cached template's solver. *)

val nnz : t -> int
(** Stored entries: the size of the pattern. *)

val fill : t -> int
(** Symbolic factorisation fill of the applied order (see
    {!Sparse.amd_order}). *)

val slot : t -> int -> int -> int
(** Stable handle of a pattern location, for allocation-free refill,
    found by search (the same slot {!create} returned for it).  Raises
    [Invalid_argument] outside the pattern. *)

val clear : t -> unit
(** Zero all values, keeping the structure. *)

val add_slot : t -> int -> float -> unit
(** Accumulate into a slot. *)

val values : t -> float array
(** The CSR value array the slots index ({!Sparse.values}): a refill
    loop adds into it directly, so no stamp value crosses a call
    boxed. *)

val residual : t -> float array -> float array -> float
(** [residual m x b] is [||m x - b||_inf] at the current values. *)

val residual_argmax : t -> float array -> float array -> int * float
(** [residual_argmax m x b] is the row index carrying the largest
    per-row residual [|m x - b|_i] together with that residual (a row
    whose residual is NaN wins outright).  Diagnostics only — the
    common norm path is {!residual}. *)

val solve : t -> float array -> float array
(** Factor the current values and solve.  Raises {!Singular}. *)
