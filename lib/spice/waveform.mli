(** SPICE-style independent-source waveforms. *)

type t =
  | Dc of float
  | Pulse of {
      v1 : float;
      v2 : float;
      delay : float;
      rise : float;
      fall : float;
      width : float;
      period : float;
    }
  | Sin of {
      offset : float;
      amplitude : float;
      freq : float;
      delay : float;
      damping : float;
    }
  | Pwl of (float * float) list

val dc : float -> t

val pulse :
  ?delay:float ->
  ?rise:float ->
  ?fall:float ->
  v1:float ->
  v2:float ->
  width:float ->
  period:float ->
  unit ->
  t
(** Raises [Invalid_argument], with a message fit for a user, on a
    negative [width] or a non-positive [period]. *)

val sin_wave :
  ?delay:float -> ?damping:float -> offset:float -> amplitude:float -> freq:float -> unit -> t
(** Raises [Invalid_argument] on a non-positive [freq]. *)

val pwl : (float * float) list -> t
(** Piecewise-linear waveform from (time, value) pairs with
    non-decreasing times.  Raises [Invalid_argument] on no pairs or a
    decreasing time. *)

val eval : t -> float -> float
(** Waveform value at a given time. *)

val dc_value : t -> float
(** Value used for DC analyses (the [t = 0] value). *)
