(* Live progress streaming.

   The analyses call [emit] at their natural milestones (analysis
   start/finish, ladder escalations) and ticks (sweep point, transient
   step, ensemble sample).  With no sink installed [on ()] is false and
   every call site costs one predictable branch — the same discipline
   as the Obs registry.  With sinks installed, dispatch takes a mutex
   so events from two threads never interleave mid-line, and ticks are
   throttled per sink by wall-clock interval while milestones always
   pass.

   Determinism contract: milestone events carry no wall-clock data, and
   every analysis runs on its caller's domain in a fixed order, so a
   deck produces a bitwise-identical milestone stream on every run.
   Ticks arrive in analysis order too, but throttling makes their count
   depend on wall-clock time; time-derived rendering (rates, ETA) lives
   in the sink, never in the event. *)

type event =
  | Analysis_start of { analysis : string; label : string }
  | Analysis_finish of { analysis : string; label : string; points : int }
  | Sweep_point of { k : int; n : int; value : float }
  | Tran_step of { t : float; t_stop : float; accepted : int; rejected : int }
  | Sample of { label : string; i : int; n : int }
  | Rung_escalation of { rung : string; sweep_point : float option }

let milestone = function
  | Analysis_start _ | Analysis_finish _ | Rung_escalation _ -> true
  | Sweep_point _ | Tran_step _ | Sample _ -> false

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/Infinity literals. *)
let number v =
  if Float.is_nan v then "null"
  else if v = Float.infinity then "1e308"
  else if v = Float.neg_infinity then "-1e308"
  else Printf.sprintf "%.17g" v

let event_to_json ev =
  let fields =
    match ev with
    | Analysis_start { analysis; label } ->
        Printf.sprintf "\"ev\":\"analysis_start\",\"analysis\":\"%s\",\"label\":\"%s\""
          (json_escape analysis) (json_escape label)
    | Analysis_finish { analysis; label; points } ->
        Printf.sprintf
          "\"ev\":\"analysis_finish\",\"analysis\":\"%s\",\"label\":\"%s\",\"points\":%d"
          (json_escape analysis) (json_escape label) points
    | Sweep_point { k; n; value } ->
        Printf.sprintf "\"ev\":\"sweep_point\",\"k\":%d,\"n\":%d,\"value\":%s" k n
          (number value)
    | Tran_step { t; t_stop; accepted; rejected } ->
        Printf.sprintf
          "\"ev\":\"tran_step\",\"t\":%s,\"t_stop\":%s,\"accepted\":%d,\"rejected\":%d"
          (number t) (number t_stop) accepted rejected
    | Sample { label; i; n } ->
        Printf.sprintf "\"ev\":\"sample\",\"label\":\"%s\",\"i\":%d,\"n\":%d"
          (json_escape label) i n
    | Rung_escalation { rung; sweep_point } ->
        Printf.sprintf "\"ev\":\"rung_escalation\",\"rung\":\"%s\",\"sweep_point\":%s"
          (json_escape rung)
          (match sweep_point with None -> "null" | Some p -> number p)
  in
  Printf.sprintf "{%s,\"milestone\":%b}" fields (milestone ev)

(* ------------------------------------------------------------------ *)
(* Sinks and dispatch                                                  *)
(* ------------------------------------------------------------------ *)

type sink = {
  s_emit : event -> unit;
  s_min_interval : float;
  mutable s_last : float; (* wall clock of the last accepted tick *)
}

let sink ?(min_interval = 0.0) emit =
  { s_emit = emit; s_min_interval = min_interval; s_last = Float.neg_infinity }

let sinks : sink list ref = ref []

(* The one branch every call site pays when the stream is off. *)
let active = ref false
let dispatch_mutex = Mutex.create ()
let on () = !active

let emit ev =
  if !active then begin
    Mutex.lock dispatch_mutex;
    (* The dispatch mutex must survive a raising sink: cancellation
       sinks (request deadlines, dropped daemon clients) abort a solve
       by raising from the callback, and the next emit — possibly from
       another thread — still needs the lock. *)
    Fun.protect
      ~finally:(fun () -> Mutex.unlock dispatch_mutex)
      (fun () ->
        let t = Unix.gettimeofday () in
        let is_milestone = milestone ev in
        List.iter
          (fun s ->
            let pass =
              is_milestone
              ||
              if t -. s.s_last >= s.s_min_interval then begin
                s.s_last <- t;
                true
              end
              else false
            in
            if pass then
              (* a dead sink (closed stderr, full disk) must not kill
                 the solve mid-run *)
              try s.s_emit ev with Sys_error _ -> ())
          !sinks)
  end

let install s =
  Mutex.lock dispatch_mutex;
  sinks := !sinks @ [ s ];
  active := true;
  Mutex.unlock dispatch_mutex

let remove s =
  Mutex.lock dispatch_mutex;
  sinks := List.filter (fun s' -> s' != s) !sinks;
  active := !sinks <> [];
  Mutex.unlock dispatch_mutex

let with_sink s f =
  install s;
  Fun.protect ~finally:(fun () -> remove s) f

(* ------------------------------------------------------------------ *)
(* Built-in sinks                                                      *)
(* ------------------------------------------------------------------ *)

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

(* Human-readable lines with sink-side rate and ETA: the event stream
   stays deterministic, the rendering does not have to be. *)
let tty ?(min_interval = 0.1) oc =
  let t_start = ref (Unix.gettimeofday ()) in
  let emit ev =
    let line =
      match ev with
      | Analysis_start { analysis = _; label } ->
          t_start := Unix.gettimeofday ();
          Printf.sprintf "progress: %s: start" label
      | Analysis_finish { analysis = _; label; points } ->
          Printf.sprintf "progress: %s: done (%d points, %.3g s)" label points
            (Unix.gettimeofday () -. !t_start)
      | Sweep_point { k; n; value } ->
          let elapsed = Unix.gettimeofday () -. !t_start in
          let eta =
            if k > 0 then elapsed /. float_of_int k *. float_of_int (n - k)
            else Float.nan
          in
          Printf.sprintf "progress: sweep %d/%d (%.0f%%) at %g, eta %.3g s" k n
            (pct (float_of_int k) (float_of_int n))
            value eta
      | Tran_step { t; t_stop; accepted; rejected } ->
          let elapsed = Unix.gettimeofday () -. !t_start in
          let rate =
            if elapsed > 0.0 then float_of_int accepted /. elapsed else 0.0
          in
          let eta = if t > 0.0 then (t_stop -. t) *. elapsed /. t else Float.nan in
          Printf.sprintf
            "progress: tran t=%.3g/%.3g (%.0f%%), %d steps (%d rejected), %.3g \
             steps/s, eta %.3g s"
            t t_stop (pct t t_stop) accepted rejected rate eta
      | Sample { label; i; n } ->
          Printf.sprintf "progress: %s %d/%d (%.0f%%)" label i n
            (pct (float_of_int i) (float_of_int n))
      | Rung_escalation { rung; sweep_point } ->
          Printf.sprintf "progress: convergence ladder -> %s%s" rung
            (match sweep_point with
            | None -> ""
            | Some p -> Printf.sprintf " (at %g)" p)
    in
    output_string oc (line ^ "\n");
    flush oc
  in
  sink ~min_interval emit

let jsonl ?(min_interval = 0.05) oc =
  sink ~min_interval (fun ev ->
      output_string oc (event_to_json ev ^ "\n");
      flush oc)

(* Formatting without the out_channel: each event becomes its one-line
   JSON and goes to the callback.  This is how the daemon streams
   progress frames onto a client socket — the line is the same bytes
   [jsonl] would write, the transport is the caller's problem. *)
let lines ?(min_interval = 0.05) write = sink ~min_interval (fun ev -> write (event_to_json ev))
