(* cntd: the always-on simulation daemon.

     cntd --listen /tmp/cntd.sock
     cntd --listen tcp:127.0.0.1:9797 --max-iter 400
     cspice --connect /tmp/cntd.sock ring.cir

   Accepts cnt-rpc/1 requests (one JSON document per line) on a
   Unix-domain socket or TCP, multiplexes them onto the shared engine,
   and keeps two caches warm across requests: one canonical parsed deck
   per content hash and the Mna compile cache over those canonical
   circuits.
   SIGTERM and SIGINT drain gracefully: in-flight requests finish,
   idle connections are shut, then the process exits 0.  See
   docs/SERVER.md for the protocol. *)

open Cmdliner

let exit_usage = 2
let exit_internal = 4

let stop_requested = Atomic.make false

let run listen_str max_request deck_cache compile_cache verbose
    base =
  match Cnt_server.Server.listen_of_string listen_str with
  | Error msg ->
      prerr_endline ("cntd: bad --listen address: " ^ msg);
      exit_usage
  | Ok listen -> (
      let cfg =
        {
          (Cnt_server.Server.default_config ~listen) with
          Cnt_server.Server.base;
          max_request_bytes = max_request;
          deck_cache_entries = deck_cache;
          compile_cache_entries = compile_cache;
          verbose;
        }
      in
      match Cnt_server.Server.start cfg with
      | exception (Invalid_argument msg | Failure msg) ->
          prerr_endline ("cntd: " ^ msg);
          exit_usage
      | exception Unix.Unix_error (e, fn, arg) ->
          Printf.eprintf "cntd: cannot listen on %s: %s (%s %s)\n" listen_str
            (Unix.error_message e) fn arg;
          exit_internal
      | server ->
          let request_stop _ = Atomic.set stop_requested true in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
          Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
          Printf.eprintf "cntd %s: listening on %s\n%!"
            Cnt_obs.Version.version
            (Cnt_server.Server.listen_to_string
               (Cnt_server.Server.listen_addr server));
          while not (Atomic.get stop_requested) do
            Thread.delay 0.05
          done;
          Printf.eprintf "cntd: draining...\n%!";
          Cnt_server.Server.stop server;
          Printf.eprintf "cntd: stopped after %d requests\n%!"
            (Cnt_server.Server.requests_served server);
          0)

let listen_arg =
  let doc =
    "Listen address: a Unix-domain socket path, or \
     $(b,tcp:)$(i,HOST):$(i,PORT)."
  in
  Arg.(
    value
    & opt string "/tmp/cntd.sock"
    & info [ "listen" ] ~docv:"ADDR" ~doc ~env:(Cmd.Env.info "CNTD_LISTEN"))

let max_request_arg =
  let doc =
    "Request-line byte cap.  An oversized request gets a structured error \
     and its connection is dropped; the daemon keeps serving."
  in
  Arg.(
    value & opt int (8 * 1024 * 1024) & info [ "max-request" ] ~docv:"BYTES" ~doc)

let deck_cache_arg =
  let doc =
    "Parsed decks kept per content hash — the anchor for cross-request \
     compile-cache sharing."
  in
  Arg.(value & opt int 64 & info [ "deck-cache" ] ~docv:"N" ~doc)

let compile_cache_arg =
  let doc =
    "Symbolic compilations memoised across requests (0 disables)."
  in
  Arg.(value & opt int 64 & info [ "compile-cache" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Log connections and requests to standard error." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let cmd =
  let doc = "always-on CNFET simulation daemon (cnt-rpc/1)" in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"after a graceful SIGTERM/SIGINT drain.";
      Cmd.Exit.info 2 ~doc:"on a usage error (bad listen address or flag).";
      Cmd.Exit.info 4 ~doc:"when the socket cannot be bound.";
    ]
  in
  Cmd.v
    (Cmd.info "cntd" ~version:Cnt_obs.Version.version ~doc ~exits)
    Term.(
      const run $ listen_arg $ max_request_arg
      $ deck_cache_arg $ compile_cache_arg $ verbose_arg
      $ Cnt_cli.Cli_config.term)

let () = exit (Cnt_cli.Cli_exit.eval cmd)
