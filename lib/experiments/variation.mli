(** Deterministic Monte-Carlo process-variation study: sample device
    geometry, refit the piecewise model per sample (milliseconds each —
    the use case the paper's speed-up enables), and summarise the
    on-current spread. *)

open Cnt_physics

type spread = {
  nominal : float;
  mean : float;
  sigma : float;
  minimum : float;
  maximum : float;
  samples : float array;
}

type config = {
  diameter_sigma : float;  (** relative sigma of the tube diameter *)
  tox_sigma : float;  (** relative sigma of the oxide thickness *)
  count : int;
  seed : int64;
  vgs : float;
  vds : float;
}

val default_config : config
(** 5 % diameter and oxide sigma, 200 samples, bias (0.6, 0.6). *)

val run : ?config:config -> ?nominal:Device.t -> unit -> spread
(** Run the study.  Sample [i] draws from [Prng.stream seed i], so each
    sample depends only on the seed and its index. *)

val to_string : spread -> string
val to_csv : spread -> string
