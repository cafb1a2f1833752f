(** PCHIP (monotone cubic Hermite) interpolation over tabulated
    samples. *)

exception Bad_table of string

type t

val pchip : float array -> float array -> t
(** Fritsch-Carlson monotone cubic interpolant: C1, and monotone on
    every interval where the data are monotone.  Abscissae must be
    strictly increasing. *)

val of_function : (float -> float) -> float -> float -> int -> t
(** Tabulate a function on [n] uniform points of [[a, b]] and wrap it
    in a PCHIP interpolant. *)

val eval : t -> float -> float
(** Evaluate; arguments outside the table extrapolate with the boundary
    segment. *)

val eval_derivative : t -> float -> float
(** First derivative of the interpolant. *)
