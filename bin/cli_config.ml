(* The shared engine-configuration term: one cmdliner term that yields
   a {!Cnt_spice.Engine.config}, so cspice, repro and cnt_char expose
   the same convergence knobs with the same spellings instead of each
   threading its own [?gmin ?tol] arguments. *)

open Cmdliner

let gmin_arg =
  let doc = "Target minimum node-to-ground conductance, siemens." in
  Arg.(value & opt float 1e-12 & info [ "gmin" ] ~docv:"G" ~doc)

let tol_arg =
  let doc = "Newton convergence tolerance (relative voltage update)." in
  Arg.(value & opt float 1e-9 & info [ "tol" ] ~docv:"TOL" ~doc)

let max_iter_arg =
  let doc = "Newton iteration budget per solve attempt." in
  Arg.(value & opt int 200 & info [ "max-iter" ] ~docv:"N" ~doc)

let no_homotopy_arg =
  let doc =
    "Disable the convergence ladder: solve with plain Newton only, failing \
     immediately instead of escalating through damped Newton, gmin stepping \
     and source stepping.  See docs/CONVERGENCE.md."
  in
  Arg.(value & flag & info [ "no-homotopy" ] ~doc)

let gmin_start_arg =
  let doc = "Starting gmin of the ladder's gmin-stepping ramp." in
  Arg.(value & opt float 1e-3 & info [ "gmin-start" ] ~docv:"G" ~doc)

let gmin_steps_arg =
  let doc = "Points in the geometric gmin ramp." in
  Arg.(value & opt int 10 & info [ "gmin-steps" ] ~docv:"N" ~doc)

let source_steps_arg =
  let doc = "Points in the source-stepping ramp." in
  Arg.(value & opt int 20 & info [ "source-steps" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Abort the run after $(docv) seconds of wall clock with a structured \
     deadline error (exit 5).  Checked before every analysis and on every \
     progress tick; see docs/SERVER.md for the daemon-side equivalent."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let model_arg =
  let doc =
    "Force every CNFET of the deck onto the named device-model backend \
     before analysis ($(b,piecewise), $(b,vs), or any registered backend).  \
     Naming the backend a device already uses is bitwise free; the default \
     leaves each device on its deck-declared backend.  See docs/MODELS.md."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "model" ] ~docv:"BACKEND" ~doc ~env:(Cmd.Env.info "CNT_MODEL"))

(* An out-of-range knob is a usage error (exit 2, like [--bogus]),
   reported under the flag's spelling: record label [max_iter] is flag
   [--max-iter]. *)
let make gmin tol max_iter no_homotopy gmin_start gmin_steps source_steps
    deadline model =
  let config =
    Cnt_spice.Engine.config ~gmin ~tol ~max_iter
      ~homotopy:
        (if no_homotopy then Cnt_spice.Homotopy.plain_only
         else
           {
             Cnt_spice.Homotopy.default with
             gmin_start;
             gmin_steps;
             source_steps;
           })
      ?deadline ?model ()
  in
  match Cnt_spice.Engine.check_config config with
  | Ok () -> Ok config
  | Error (field, reason) ->
      let flag = String.map (function '_' -> '-' | c -> c) field in
      Error (`Msg (Printf.sprintf "option '--%s': %s" flag reason))

let term_with model_term =
  Term.(
    cli_parse_result
      (const make $ gmin_arg $ tol_arg $ max_iter_arg
     $ no_homotopy_arg $ gmin_start_arg $ gmin_steps_arg $ source_steps_arg
     $ deadline_arg $ model_term))

let term = term_with model_arg

(* For tools whose [--model] means something else (cnt_char picks the
   characterisation model): the same knobs without the device-model
   override flag. *)
let term_no_model = term_with (Term.const None)
