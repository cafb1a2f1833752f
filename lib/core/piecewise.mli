(** Piecewise polynomial functions over the real line.

    With boundaries [b_0 < ... < b_{n-1}], piece [0] covers
    [(-inf, b_0]], piece [i] covers [(b_{i-1}, b_i]], and piece [n]
    covers [(b_{n-1}, +inf)]. *)

open Cnt_numerics

type t

val create : boundaries:float array -> pieces:Polynomial.t array -> t
(** Build from strictly ascending boundaries and one more piece than
    boundaries.  Raises [Invalid_argument] otherwise. *)

val boundaries : t -> float array
val pieces : t -> Polynomial.t array
val piece_count : t -> int

val piece_index : t -> float -> int
(** Index of the piece containing the point; boundary points belong to
    the piece on their left. *)

val piece_at : t -> float -> Polynomial.t

val eval : t -> float -> float
val eval_with_derivative : t -> float -> float * float

val derivative : t -> t
val map_pieces : (Polynomial.t -> Polynomial.t) -> t -> t
val scale : float -> t -> t
val add_constant : float -> t -> t

val shift : t -> float -> t
(** [shift t a] is the function [x -> eval t (x + a)]: boundaries move
    left by [a].  The drain charge curve is the source curve shifted by
    [V_DS]. *)

val continuity_defect : ?order:int -> t -> float
(** Largest jump of the [order]-th derivative across any boundary. *)

val is_c1 : ?tol:float -> ?scale:float -> t -> bool
(** Whether value and slope are continuous at every boundary, to a
    tolerance relative to [scale]. *)

val pp : Format.formatter -> t -> unit
