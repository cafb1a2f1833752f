(** Scalar root finding. *)

exception No_bracket of string
(** Raised by bracketing methods when [f a] and [f b] have the same
    sign. *)

exception Not_converged of string
(** Raised when the iteration budget is exhausted. *)

type result = {
  root : float;  (** located root *)
  iterations : int;  (** iterations consumed *)
  residual : float;  (** [f root] at the returned point *)
}

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> result
(** Bisection on a sign-changing interval.  Robust, linear
    convergence. *)

val newton_bracketed :
  ?tol:float ->
  ?max_iter:int ->
  f:(float -> float) ->
  f':(float -> float) ->
  float ->
  float ->
  result
(** Newton-Raphson constrained to a sign-changing bracket, falling back
    to bisection steps whenever the Newton update escapes the bracket.
    Quadratic convergence near the root with guaranteed global
    convergence. *)
