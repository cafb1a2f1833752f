(** Linear least squares with linear equality constraints
    (value/derivative pinning at chosen points): what builds the
    C1-continuous piecewise charge approximations. *)

exception Bad_fit of string

val constrained_least_squares :
  design:Linalg.mat ->
  rhs:float array ->
  constraints:Linalg.mat ->
  targets:float array ->
  float array
(** Minimise [||design.c - rhs||] subject to [constraints.c = targets].
    The constraint matrix must have full row rank and no more rows than
    unknowns. *)

val derivative_row : degree:int -> order:int -> float -> float array
(** Row of the derivative-Vandermonde: coefficients such that the dot
    product with the polynomial coefficient vector equals
    [p^(order)(x)]. *)
