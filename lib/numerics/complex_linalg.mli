(** Dense complex linear algebra for AC (small-signal) circuit
    analysis. *)

exception Singular of string
exception Dimension_mismatch of string

type cmat

module Cvec : sig
  type t = Complex.t array

  val zero : int -> t

  val sub : t -> t -> t
  val norm_inf : t -> float
end

module Cmat : sig
  type t = cmat

  val zero : int -> int -> t
  val init : int -> int -> (int -> int -> Complex.t) -> t

  val add_to : t -> int -> int -> Complex.t -> unit
  (** Accumulate into an entry (the AC stamping primitive). *)

  val mul_vec : t -> Cvec.t -> Cvec.t
end

val solve : cmat -> Cvec.t -> Cvec.t
(** [solve a b] solves the complex system [a x = b] by LU with partial
    pivoting on the modulus.  Raises {!Singular} when no unique
    solution exists. *)
