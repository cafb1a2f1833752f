(* Chrome trace-event export of the registry contents.

   The output is the JSON-object form of the trace-event format
   (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
   each completed span becomes one complete ("ph":"X") event with
   microsecond timestamps relative to the registry epoch, and each
   counter becomes one counter ("ph":"C") sample stamped at export
   time, so `chrome://tracing` and https://ui.perfetto.dev can load the
   file directly. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/Infinity literals; clamp them to null-safe numbers. *)
let number v =
  if Float.is_nan v then "0"
  else if v = Float.infinity then "1e308"
  else if v = Float.neg_infinity then "-1e308"
  else Printf.sprintf "%.17g" v

let span_event ~epoch e =
  let args =
    match e.Obs.ev_args with
    | [] -> ""
    | args ->
        let fields =
          List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (number v)) args
        in
        Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)
  in
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":1%s}"
    (escape e.Obs.ev_name)
    (number ((e.Obs.ev_start -. epoch) *. 1e6))
    (number (Float.max 0.0 e.Obs.ev_dur *. 1e6))
    args

let counter_event ~ts (name, v) =
  Printf.sprintf
    "{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"C\",\"ts\":%s,\"pid\":1,\"tid\":1,\"args\":{\"value\":%d}}"
    (escape name) (number ts) v

let to_chrome_json () =
  let epoch = Obs.epoch () in
  let spans = List.map (span_event ~epoch) (Obs.events ()) in
  let t_export = (Obs.now () -. epoch) *. 1e6 in
  let cs = List.map (counter_event ~ts:t_export) (Obs.counters ()) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string buf (String.concat ",\n" (spans @ cs));
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_chrome_json ()))
