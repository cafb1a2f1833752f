(** Dense linear algebra: Householder least squares for the charge
    fits, and an LU solve as the sparse solver's test reference. *)

exception Singular of string
exception Dimension_mismatch of string

type mat

(** Plain [float array] vectors. *)
module Vec : sig
  type t = float array

  val add : t -> t -> t
  val sub : t -> t -> t
end

(** Row-major dense matrices. *)
module Mat : sig
  type t = mat

  val make : int -> int -> float -> t
  val init : int -> int -> (int -> int -> float) -> t
  val of_arrays : float array array -> t
  val rows : t -> int
  val cols : t -> int
  val set : t -> int -> int -> float -> unit
  val row : t -> int -> float array
  val mul : t -> t -> t
  val mul_vec : t -> Vec.t -> Vec.t
end

val solve : mat -> Vec.t -> Vec.t
(** [solve a b] solves [a x = b] by LU with partial pivoting.  Raises
    {!Singular} on structurally or numerically singular input.  The
    dense reference the sparse MNA solver is tested against. *)

val qr_least_squares : mat -> Vec.t -> Vec.t
(** [qr_least_squares a b] minimises [||a x - b||_2] by Householder QR
    for a full-column-rank [a] with at least as many rows as columns. *)
