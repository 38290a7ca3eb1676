(* In-process side of the serve benchmark (perfbench/run.py).

   layers.exe catalog
     Registry entries and host facts as one JSON object.
   layers.exe refs < REQUESTS.json
     Interpreter digests for [{"kernel","bindings","seed"}, ...], in
     order: the references the client checks every response against.
   layers.exe replay PLAN.json [--chrome TRACE.json]
     Replay a workload's request sequence through the same layer calls
     [blockc serve] makes, each wrapped in a span owned by this file.
     With --chrome the replay is traced: the program's own Obs spans
     and decision events are collected in memory, per-layer self times
     are reported, and the spans are written as a Chrome trace_event
     file when the run ends.  Without it no sink is installed, which
     gives the untraced time the tracing overhead is measured against.

   The digest and the per-op flow below mirror lib/serve/serve.ml; a
   drift in either shows up as reference mismatches, not as silently
   different numbers. *)

module J = Json_min

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt
let jnum f = J.Number f
let jint n = J.Number (float_of_int n)
let jstr s = J.String s
let field j k = match j with J.Object kvs -> List.assoc_opt k kvs | _ -> None

let str_field j k =
  match field j k with Some (J.String s) -> s | _ -> fail "plan: missing %S" k

let int_field j k =
  match field j k with
  | Some (J.Number f) -> int_of_float f
  | _ -> fail "plan: missing %S" k

let bindings_of = function
  | J.Object kvs ->
      List.map
        (function
          | k, J.Number f -> (k, int_of_float f)
          | k, _ -> fail "plan: binding %s is not a number" k)
        kvs
  | _ -> fail "plan: bindings must be an object"

let entry_of name =
  match Blockability.find name with
  | Some e -> e
  | None -> fail "unknown kernel %s" name

(* serve.ml's response digest: MD5 of the traced REAL arrays. *)
let digest_env (e : Blockability.entry) env =
  let arrays =
    List.map (fun a -> (a, Env.farray_data env a)) e.kernel.Kernel_def.traced
  in
  Digest.to_hex (Digest.string (Marshal.to_string arrays []))

let read_all ic = really_input_string ic (in_channel_length ic)

let read_json_stdin () =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf stdin 1
     done
   with End_of_file -> ());
  match J.parse (Buffer.contents buf) with
  | Ok j -> j
  | Error m -> fail "bad JSON on stdin: %s" m

(* ---- catalog ------------------------------------------------------ *)

let catalog () =
  let bindings bs = J.Object (List.map (fun (k, v) -> (k, jint v)) bs) in
  let one (e : Blockability.entry) =
    J.Object
      [
        ("name", jstr e.name);
        ("params", J.Array (List.map jstr e.kernel.Kernel_def.params));
        ("default_bindings", bindings e.default_bindings);
        ("blockable", J.Bool e.blockable);
      ]
  in
  print_endline
    (J.to_string
       (J.Object
          [
            ("recommended_domain_count", jint (Domain.recommended_domain_count ()));
            ("ocaml_version", jstr Sys.ocaml_version);
            ("kernels", J.Array (List.map one Blockability.entries));
          ]))

(* ---- references --------------------------------------------------- *)

let refs () =
  let reqs = match read_json_stdin () with J.Array l -> l | _ -> fail "refs: expected an array" in
  let digest r =
    let e = entry_of (str_field r "kernel") in
    let bindings =
      match field r "bindings" with Some b -> bindings_of b | None -> e.default_bindings
    in
    let env = Kernel_def.run e.kernel ~bindings ~seed:(int_field r "seed") in
    jstr (digest_env e env)
  in
  print_endline (J.to_string (J.Array (List.map digest reqs)))

(* ---- replay ------------------------------------------------------- *)

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1e3

type st = {
  derived : (string, (Stmt.t list, string) result) Hashtbl.t;
      (* serve's derived-block cache: filled by compile, not by derive *)
  seen : (string, unit) Hashtbl.t;  (* kernels derived at least once *)
  mutable records : J.t list;  (* per-call measurements, newest first *)
  mutable errors : int;
  mutable messages : string list;
}

let record st kind fields ms =
  st.records <- J.Object (("kind", jstr kind) :: ("ms", jnum ms) :: fields) :: st.records

let error st m =
  st.errors <- st.errors + 1;
  if List.length st.messages < 10 then st.messages <- m :: st.messages

let span name args f = Obs.span ~cat:"bench" ~args name f

let derive st (e : Blockability.entry) =
  let first = not (Hashtbl.mem st.seen e.name) in
  Hashtbl.replace st.seen e.name ();
  let t0 = now () in
  let r =
    span "core.derive" [ ("kernel", Obs.Str e.name); ("first", Obs.Bool first) ]
      (fun () -> Blockability.derive e)
  in
  record st "derive" [ ("kernel", jstr e.name); ("first", J.Bool first) ] (ms_since t0);
  r

let derived_block st (e : Blockability.entry) =
  match Hashtbl.find_opt st.derived e.name with
  | Some r -> r
  | None ->
      let r =
        match derive st e with
        | Error m -> Error ("derivation failed: " ^ m)
        | Ok { Blocker.result; _ } -> Ok [ result ]
      in
      Hashtbl.replace st.derived e.name r;
      r

let compile st (e : Blockability.entry) ~variant ~backend =
  let block =
    if variant = "point" then Ok e.kernel.Kernel_def.block else derived_block st e
  in
  match block with
  | Error _ as err -> err
  | Ok block -> (
      let bp =
        span "codegen.blueprint" [ ("kernel", Obs.Str e.name) ] (fun () ->
            Blueprint.of_block ~shapes:e.kernel.Kernel_def.shapes block)
      in
      match Backend.of_tag backend with
      | None -> Error ("unknown backend " ^ backend)
      | Some (module B : Backend.S) -> (
          let t0 = now () in
          let r =
            span "codegen.compile" [ ("backend", Obs.Str backend) ] (fun () ->
                let r = B.compile_blueprint ~name:(e.name ^ "_" ^ variant) bp in
                (match r with
                | Ok cm ->
                    Obs.instant ~cat:"bench" "codegen.disposition"
                      ~args:[ ("disposition", Obs.Str (Jit.disposition_name cm.Backend.bk_disposition)) ]
                | Error _ -> ());
                r)
          in
          match r with
          | Error _ as err -> err
          | Ok cm ->
              record st "compile"
                [
                  ("kernel", jstr e.name);
                  ("variant", jstr variant);
                  ("backend", jstr backend);
                  ("disposition", jstr (Jit.disposition_name cm.Backend.bk_disposition));
                ]
                (ms_since t0);
              Ok (bp, cm)))

(* One kernel run as serve's execute does it: environment, run, digest. *)
let run_one st (e : Blockability.entry) ~variant ~backend (bp, cm) ~bindings ~seed ~expect =
  let bindings = if bindings = [] then e.default_bindings else bindings in
  let cell = J.to_string (J.Object (List.map (fun (k, v) -> (k, jint v)) bindings)) in
  let bindings = if variant = "point" then bindings else e.extra_bindings @ bindings in
  let t0 = now () in
  let env =
    span "kernels.env" [] (fun () ->
        let env = Kernel_def.make_env e.kernel ~bindings ~seed in
        e.extra_setup env ~bindings;
        env)
  in
  record st "env" [] (ms_since t0);
  let t0 = now () in
  let ran = span "exec.run" [] (fun () -> cm.Backend.bk_run ~bindings:bp.Blueprint.bindings env) in
  record st "exec"
    [ ("kernel", jstr e.name); ("variant", jstr variant); ("backend", jstr backend); ("cell", jstr cell) ]
    (ms_since t0);
  match ran with
  | Error m -> error st (e.name ^ ": " ^ m)
  | Ok () ->
      let t0 = now () in
      let d = span "bench.digest" [] (fun () -> digest_env e env) in
      record st "digest" [] (ms_since t0);
      if d <> expect then
        error st (Printf.sprintf "%s %s %s %s: digest %s, interpreter %s" e.name variant backend cell d expect)

let replay_request st r =
  let op = str_field r "op" in
  let e = entry_of (str_field r "kernel") in
  span "bench.request" [ ("op", Obs.Str op); ("kernel", Obs.Str e.name) ] @@ fun () ->
  match op with
  | "derive" -> (
      match derive st e with
      | Ok _ when not e.blockable -> error st (e.name ^ ": derived, but the registry marks it not blockable")
      | Error m when e.blockable -> error st (e.name ^ ": " ^ m)
      | Ok _ | Error _ -> ())
  | "compile" | "execute" | "batch" -> (
      let variant = str_field r "variant" and backend = str_field r "backend" in
      match compile st e ~variant ~backend with
      | Error m -> error st (e.name ^ ": " ^ m)
      | Ok c -> (
          let seed () = int_field r "seed" in
          match op with
          | "execute" ->
              run_one st e ~variant ~backend c
                ~bindings:(bindings_of (Option.value (field r "bindings") ~default:(J.Object [])))
                ~seed:(seed ()) ~expect:(str_field r "ref")
          | "batch" -> (
              (* Items run one after another here: the pool fan-out is
                 measured from serve's batch responses, not replayed. *)
              match (field r "bindings_list", field r "refs") with
              | Some (J.Array items), Some (J.Array refs) when List.length items = List.length refs ->
                  List.iter2
                    (fun b x ->
                      match x with
                      | J.String expect ->
                          run_one st e ~variant ~backend c ~bindings:(bindings_of b) ~seed:(seed ()) ~expect
                      | _ -> fail "plan: refs must be strings")
                    items refs
              | _ -> fail "plan: batch needs bindings_list and refs of equal length")
          | _ -> ()))
  | _ -> fail "plan: unknown op %s" op

(* ---- self time from the collected spans --------------------------- *)

(* Ledger layer of a span.  cc.compile_blueprint is settled by its
   parent in [ledger]. *)
let layer_of (ev : Obs.event) =
  match ev.Obs.name with
  | "bench.replay" | "bench.phase" | "bench.request" -> "unattributed"
  | "core.derive" -> "core"
  | "codegen.blueprint" -> "blueprint"
  | "codegen.compile" | "jit.compile_blueprint" | "cc.compile_blueprint" -> "cache"
  | "jit.emit" -> "emit.ocaml"
  | "jit.compile" -> "toolchain.ocamlopt"
  | "cc.compile" -> "toolchain.cc"
  | "jit.load" -> "load"
  | "kernels.env" -> "kernels"
  | "exec.run" | "jit.run" | "cc.run" -> "exec"
  | "bench.digest" -> "digest"
  | _ when ev.Obs.cat = "driver" -> "transform"
  | _ -> "other"

type frame = {
  ev : Obs.event;
  phase : string;
  mutable child_ns : int;
  mutable disposition : string option;
  mutable pending_cc_ns : int;
      (* The C backend emits and dlopens inside cc.compile_blueprint
         without a span of its own, so that span's self time is
         emission on a fresh compile and cache lookup otherwise: it is
         parked here until the parent codegen.compile span has seen the
         disposition. *)
}

let ledger events =
  let tbl = Hashtbl.create 32 in
  let add phase layer ns =
    let k = (phase, layer) in
    let t, c = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0) in
    Hashtbl.replace tbl k (t + ns, c + 1)
  in
  let fsa = ref 0 and fsa_eq = ref 0 and other = ref 0 and other_applied = ref 0 in
  let stacks = Hashtbl.create 4 in
  let phase_of_args args =
    match List.assoc_opt "phase" args with Some (Obs.Str p) -> Some p | _ -> None
  in
  List.iter
    (fun (ev : Obs.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks ev.Obs.track) ~default:[] in
      match ev.Obs.kind with
      | Obs.Begin ->
          let phase =
            match (phase_of_args ev.Obs.args, stack) with
            | Some p, _ -> p
            | None, f :: _ -> f.phase
            | None, [] -> "run"
          in
          Hashtbl.replace stacks ev.Obs.track
            ({ ev; phase; child_ns = 0; disposition = None; pending_cc_ns = 0 } :: stack)
      | Obs.End -> (
          match stack with
          | f :: rest ->
              let dur = ev.Obs.ts - f.ev.Obs.ts in
              let self = dur - f.child_ns in
              (match (f.ev.Obs.name, rest) with
              | "cc.compile_blueprint", p :: _ -> p.pending_cc_ns <- p.pending_cc_ns + self
              | _ -> add f.phase (layer_of f.ev) self);
              if f.pending_cc_ns > 0 then
                add f.phase
                  (if f.disposition = Some "compiled" then "emit.c" else "cache")
                  f.pending_cc_ns;
              (match rest with p :: _ -> p.child_ns <- p.child_ns + dur | [] -> ());
              Hashtbl.replace stacks ev.Obs.track rest
          | [] -> ())
      | Obs.Instant -> (
          let applied = List.assoc_opt "applied" ev.Obs.args = Some (Obs.Bool true) in
          match (ev.Obs.cat, ev.Obs.name, stack) with
          | "decision", "fsa", _ ->
              incr fsa;
              if applied then incr fsa_eq
          | "decision", _, _ ->
              incr other;
              if applied then incr other_applied
          | "bench", "codegen.disposition", f :: _ ->
              f.disposition <-
                (match List.assoc_opt "disposition" ev.Obs.args with
                | Some (Obs.Str d) -> Some d
                | _ -> None)
          | _ -> ()))
    events;
  let rows =
    Hashtbl.fold
      (fun (phase, layer) (ns, n) acc ->
        J.Object
          [
            ("phase", jstr phase);
            ("layer", jstr layer);
            ("self_ms", jnum (float_of_int ns /. 1e6));
            ("count", jint n);
          ]
        :: acc)
      tbl []
  in
  ( rows,
    J.Object
      [
        ("fsa", jint !fsa);
        ("fsa_equivalent", jint !fsa_eq);
        ("other", jint !other);
        ("other_applied", jint !other_applied);
      ] )

let replay plan_file chrome =
  let plan =
    let ic = open_in_bin plan_file in
    let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic) in
    match J.parse s with Ok j -> j | Error m -> fail "bad plan: %s" m
  in
  let phases =
    match field plan "phases" with Some (J.Array l) -> l | _ -> fail "plan: missing phases"
  in
  let collected, chrome_oc =
    match chrome with
    | None -> (None, None)
    | Some path ->
        let mem, read = Obs.memory () in
        let oc = open_out_bin path in
        Obs.set_sink (Obs.tee mem (Obs.chrome oc));
        (Some read, Some oc)
  in
  let st = { derived = Hashtbl.create 16; seen = Hashtbl.create 16; records = []; errors = 0; messages = [] } in
  let phase_ms = ref [] in
  let t0 = now () in
  span "bench.replay" [] (fun () ->
      List.iter
        (fun ph ->
          let name = str_field ph "name" in
          let tp = now () in
          span "bench.phase" [ ("phase", Obs.Str name) ] (fun () ->
              match field ph "requests" with
              | Some (J.Array reqs) -> List.iter (replay_request st) reqs
              | _ -> fail "plan: phase %s has no requests" name);
          phase_ms := (name, jnum (ms_since tp)) :: !phase_ms)
        phases);
  let wall_ms = ms_since t0 in
  let ledger_fields =
    match (collected, chrome_oc) with
    | Some read, Some oc ->
        Obs.flush ();
        Obs.set_sink Obs.null;
        close_out oc;
        let rows, decisions = ledger (read ()) in
        [ ("ledger", J.Array rows); ("decisions", decisions) ]
    | _ -> []
  in
  print_endline
    (J.to_string
       (J.Object
          ([
             ("wall_ms", jnum wall_ms);
             ("phase_ms", J.Object (List.rev !phase_ms));
             ("errors", jint st.errors);
             ("messages", J.Array (List.rev_map jstr st.messages));
             ("records", J.Array (List.rev st.records));
           ]
          @ ledger_fields)))

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "catalog" ] -> catalog ()
  | [ "refs" ] -> refs ()
  | [ "replay"; plan ] -> replay plan None
  | [ "replay"; plan; "--chrome"; path ] -> replay plan (Some path)
  | _ -> fail "usage: layers.exe (catalog | refs | replay PLAN.json [--chrome TRACE.json])"
