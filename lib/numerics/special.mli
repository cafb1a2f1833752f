(** Overflow-safe scalar special functions. *)

val log1p_exp : float -> float
(** [log1p_exp x] is [log (1 + exp x)] (softplus), computed without
    overflow for any finite [x].  This is the closed form of the
    Fermi-Dirac integral of order zero. *)

val logistic : float -> float
(** [logistic x] is [1 / (1 + exp x)], computed without overflow.  The
    Fermi occupation of a state at energy [E] with chemical potential
    [mu] is [logistic ((E - mu) / kT)]. *)

val logistic' : float -> float
(** Derivative of {!logistic}; always in [[-0.25, 0]]. *)

val approx_equal : ?atol:float -> ?rtol:float -> float -> float -> bool
(** Approximate equality with absolute tolerance [atol] (default 1e-12)
    and relative tolerance [rtol] (default 1e-9). *)
