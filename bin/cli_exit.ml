(* Every CLI's entry point.  cmdliner reports its own command-line and
   internal failures as 124 / 125; fold them into the documented exit
   contract (docs/CONVERGENCE.md "Exit codes"): 2 usage, 4 internal. *)

let eval cmd =
  match Cmdliner.Cmd.eval' cmd with 124 -> 2 | 125 -> 4 | n -> n

(* The --help "EXIT STATUS" of a tool whose only codes are these;
   cmdliner's default would advertise 124 / 125. *)
let exits =
  Cmdliner.Cmd.Exit.
    [
      info 0 ~doc:"on success.";
      info 2 ~doc:"on a usage error or an unwritable output path.";
      info 4 ~doc:"on an unexpected internal error.";
    ]
