(* The daemon's compiled-deck cache: one canonical {!Parser.deck} per
   (deck-content MD5, device-model override) pair.

   A request's [model] override rewrites every CNFET of the deck, so
   the same deck text under different overrides is a different circuit
   — caching them under one entry would alias models across requests.
   Remodelling happens here, once at insert ({!Circuit.remodel}); the
   engine's own override application then finds every device already on
   the right backend and leaves the circuit physically unchanged.

   Keeping a single canonical deck value per key is what makes
   {!Cnt_spice.Mna}'s compile cache work across requests: it is keyed
   by the {e physical} identity of the circuit value, so only repeated
   runs of the same canonical deck share a symbolic compilation.

   Parse failures are not cached — malformed text is cheap to reject
   and the message must reflect the request that sent it.  Thread-safe;
   FIFO eviction. *)

open Cnt_spice

type entry = {
  md5 : string;
  model : string option;  (* the override this deck was staged under *)
  file : string option;  (* the client's path hint; part of the key
                            because it anchors .include resolution and
                            error locations *)
  deck : Parser.deck;
  mutable runs : int;  (* requests served from this entry, hit or miss *)
}

type t = {
  mutable entries : entry list;  (* newest first *)
  max_entries : int;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(max_entries = 64) () =
  if max_entries < 1 then
    invalid_arg "Deck_cache.create: max_entries must be >= 1";
  { entries = []; max_entries; mutex = Mutex.create (); hits = 0; misses = 0 }

let find_or_parse ?model ?file t text =
  let md5 = Digest.to_hex (Digest.string text) in
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  match
    List.find_opt
      (fun e -> e.md5 = md5 && e.model = model && e.file = file)
      t.entries
  with
  | Some e ->
      t.hits <- t.hits + 1;
      e.runs <- e.runs + 1;
      Ok (e, true)
  | None -> (
      match Parser.parse ?file text with
      | exception Parser.Parse_error err -> Error (Diag.Parse err)
      | deck -> (
          let remodelled =
            match model with
            | None -> Ok deck
            | Some backend -> (
                match Circuit.remodel deck.Parser.circuit ~backend with
                | circuit -> Ok { deck with Parser.circuit }
                | exception Circuit.Bad_circuit msg ->
                    Error (Diag.Bad_deck msg))
          in
          match remodelled with
          | Error _ as e -> e
          | Ok deck ->
              t.misses <- t.misses + 1;
              let e = { md5; model; file; deck; runs = 1 } in
              t.entries <-
                e :: List.filteri (fun i _ -> i < t.max_entries - 1) t.entries;
              Ok (e, false)))

let stats t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  (List.length t.entries, t.hits, t.misses)
