(** Deterministic pseudo-random numbers (SplitMix64) for reproducible
    Monte-Carlo studies. *)

type t

val create : ?seed:int64 -> unit -> t

val next_int64 : t -> int64
(** Next raw 64-bit value. *)

val uniform : t -> float
(** Uniform in [[0, 1)]. *)

val uniform_range : t -> lo:float -> hi:float -> float

val gaussian : ?mean:float -> ?sigma:float -> t -> float
(** Normal variate by Box-Muller. *)

val split : t -> t
(** Derive an independent stream, advancing [t] by one draw. *)

val jump : t -> int -> unit
(** [jump t n] advances [t] by exactly [n] draws in O(1) — after it,
    [t] produces the same values as if [n] values had been consumed.
    Raises [Invalid_argument] on negative [n]. *)

val stream : t -> int -> t
(** [stream t i] derives the [i]-th independent sub-stream of [t]
    {e without} mutating [t]: stream [i] is a pure function of [t]'s
    current state and [i], so it yields the same draws no matter how
    many other streams are created or in what order — the property that
    makes each Monte-Carlo sample a function of the seed and its index
    alone.  Raises [Invalid_argument] on negative [i]. *)
