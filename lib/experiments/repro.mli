(** Run any of the paper's tables and figures by name. *)

type artefact = {
  name : string;
  text : string;  (** human-readable rendering *)
  csv : string;
}

val experiment_ids : string list
(** All known ids: table1..table5, fig2..fig11, plus the
    beyond-the-paper studies (ablation_*, variation). *)

val run : string -> artefact
(** Run one experiment.  Raises [Invalid_argument] on unknown ids. *)

val save : ?dir:string -> artefact -> string
(** Write the CSV under [dir] (default "results"); returns the path. *)

val run_all :
  ?dir:string ->
  ?ids:string list ->
  print:bool ->
  unit ->
  (artefact * string) list
(** Run a list of experiments (default all), optionally printing each
    rendering, saving every CSV.  Experiments run in sequence. *)
