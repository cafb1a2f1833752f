(** cnt-rpc/1: the line-delimited JSON protocol between the [cntd]
    daemon and its clients ([cspice --connect]).

    One JSON document per line.  A run request is answered with an
    {e accepted} frame carrying the deck title (sent before the solve,
    so a client can print in the offline order), zero or more
    {e progress} frames embedding {!Cnt_obs.Progress.event_to_json}
    payloads verbatim, and exactly one {e result} frame: [status:"ok"]
    with the tables serialised float-exactly (see {!Json}), or
    [status:"error"] with an error object shaped like
    {!Cnt_spice.Diag.error_json} — protocol-level failures (malformed
    JSON, unknown rpc version, oversized line) reuse that shape with
    their own [kind], so a client reports every failure through one
    path.  See [docs/SERVER.md] for the full schema. *)

open Cnt_spice

val rpc_version : string
(** ["cnt-rpc/1"]. *)

type deck_source =
  | Deck_text of { text : string; file : string option }
      (** the netlist itself, newlines included; [file] is an optional
          client-side path hint that names the text in parse-error
          locations and anchors relative [.include] paths *)
  | Deck_path of string  (** a path readable by the {e daemon} *)

type request =
  | Run of {
      id : string;
      deck : deck_source;
      config_json : Json.t option;
          (** raw config object; the daemon decodes it onto its own
              base with {!config_of_json} *)
      progress : bool;  (** stream progress frames for this request *)
    }
  | Ping of { id : string }

type request_error = { code : string; message : string }
(** Protocol-level rejection; [code] is the error [kind] on the wire:
    ["bad_json"], ["bad_request"], ["unsupported_rpc"],
    ["oversized"]. *)

val parse_request : string -> (request, request_error) result

(** {1 Engine configuration on the wire}

    Every field of {!Cnt_spice.Engine.config} has a JSON spelling;
    absent or [null] fields keep the daemon's base value, so a client
    sends only what it wants to override.  The [homotopy] field is an
    object of the {!Cnt_spice.Homotopy.policy} fields, with the same
    rule. *)

val config_to_json : Engine.config -> Json.t

val config_of_json :
  base:Engine.config -> Json.t -> (Engine.config, string) result
(** Decode onto [base].  An error names the first unknown key (a
    [homotopy] key as ["homotopy.KEY"]), a [config] or [homotopy] that
    is not an object, a malformed value, or a value that
    {!Cnt_spice.Engine.check_config} rejects. *)

(** {1 Tables on the wire} *)

val table_to_json : Engine.table -> Json.t
(** Columns, rows (floats render exactly — see {!Json}) and the
    per-analysis solver stats. *)

val table_of_json : Json.t -> (Engine.table, string) result

(** {1 Client-side request encoding} *)

val encode_run :
  id:string ->
  deck:deck_source ->
  config:Engine.config ->
  progress:bool ->
  string

val encode_ping : id:string -> string

(** {1 Daemon-side response frames} — each returns one line, no
    trailing newline. *)

val accepted_line : id:string -> title:string -> string

val progress_line : id:string -> event_json:string -> string
(** [event_json] is a {!Cnt_obs.Progress.event_to_json} line, embedded
    verbatim. *)

val result_ok_line :
  id:string -> server:Json.t -> tables:Engine.table list -> string
(** [server] is a daemon-info object (version, cache outcome, timing)
    the client records in its run manifest. *)

val result_error_line : id:string -> error_json:string -> string
(** [error_json] is a {!Cnt_spice.Diag.error_json} payload, embedded
    verbatim. *)

val request_error_line : id:string -> request_error -> string
(** A protocol-level failure as an error result frame (exit code 2). *)

val pong_line : id:string -> server:Json.t -> string

(** {1 Client-side frame parsing} *)

type frame =
  | Accepted of { id : string; title : string }
  | Progress of { id : string; event : Cnt_obs.Progress.event option }
      (** [event] is [None] when the payload introduced an event kind
          this client does not know — skip it, do not fail *)
  | Result_ok of { id : string; server : Json.t; tables : Engine.table list }
  | Result_error of {
      id : string;
      kind : string;
      exit_code : int;
      message : string;
      error_json : string;  (** the error object re-rendered, for manifests *)
    }
  | Pong of { id : string; server : Json.t }

val parse_frame : string -> (frame, string) result

val event_of_json : Json.t -> Cnt_obs.Progress.event option
(** Inverse of {!Cnt_obs.Progress.event_to_json} for known event
    kinds. *)
