(* The --jobs flag shared by cspice, repro and cnt_char.

   Validation goes through Cnt_par.Pool.jobs_of_string, the same parser
   the CNT_JOBS environment variable uses, so zero, negative and
   malformed counts are rejected with the same message everywhere, as a
   usage error (exit 2). *)

open Cmdliner

let jobs_conv =
  let parse s =
    match Cnt_par.Pool.jobs_of_string s with
    | Ok spec -> Ok (Cnt_par.Pool.cap_jobs (Cnt_par.Pool.resolve spec))
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let arg =
  let doc =
    "Number of worker domains for parallel analyses (DC sweeps, \
     Monte-Carlo variation, RMS tables): a positive integer, or $(b,auto) \
     for the runtime's recommended domain count.  Zero and negative values \
     are rejected; counts above the host's core count are capped with a \
     warning.  Defaults to $(b,CNT_JOBS) when set, else 1.  Results are \
     byte-identical at any value; only wall-clock time changes.  See \
     docs/PARALLEL.md."
  in
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "j"; "jobs" ] ~docv:"N" ~doc ~env:(Cmd.Env.info "CNT_JOBS"))
