open Helpers

(* The kernels' inputs are defined by the Lcg stream: pin it with
   literals, so a change to the generator's representation cannot
   silently change every input (and every reference digest). *)
let lcg_stream_pinned () =
  let ints t k bound = List.init k (fun _ -> Lcg.int t bound) in
  let bits x = Int64.bits_of_float x in
  let check_ints what expected got =
    Alcotest.(check (list int)) what expected got
  in
  check_ints "create 7" [ 25517; 869895; 913833; 934399; 284011 ]
    (ints (Lcg.create 7) 5 1000003);
  let t = Lcg.create 7 in
  let s = Lcg.split t in
  check_ints "parent after split" [ 869895; 913833; 934399 ] (ints t 3 1000003);
  check_ints "split" [ 700376; 297428; 915699 ] (ints s 3 1000003);
  (* seed, then int / uniform / bool / float / split int / split uniform
     / parent int, in that order *)
  List.iter
    (fun (seed, i, u, b, f, si, su, after) ->
      let what = Printf.sprintf "seed %d" seed in
      let t = Lcg.create seed in
      check_int (what ^ " int") i (Lcg.int t 1000003);
      Alcotest.(check int64) (what ^ " uniform") u (bits (Lcg.uniform t));
      check_bool (what ^ " bool") b (Lcg.bool t 0.5);
      Alcotest.(check int64) (what ^ " float") f (bits (Lcg.float t 2.0));
      let s = Lcg.split t in
      check_int (what ^ " split int") si (Lcg.int s 97);
      Alcotest.(check int64) (what ^ " split uniform") su (bits (Lcg.uniform s));
      check_int (what ^ " int after split") after (Lcg.int t 1000003))
    [
      (0, 147831, 0x3fe04d10d670c940L, false, 0x3fe880d5734464c0L, 28,
       0x3faca5567af96c00L, 25207);
      (1, 314395, 0x3fe46d5494f5dc60L, true, 0x3ff7d0bcaa5c4ca0L, 72,
       0x3fd97f176b7cd740L, 837074);
      (42, 549175, 0x3fed982e1845ee60L, true, 0x3ff1eddc382a8340L, 93,
       0x3fd88dae771fe180L, 529182);
      (-5, 603273, 0x3febabbe1dd76960L, false, 0x3ff26ed105ffaee0L, 21,
       0x3fdb62543bb1bd00L, 254145);
      (max_int, 53331, 0x3fe42ccd17ebb600L, true, 0x3fe1603191d03000L, 3,
       0x3fe4eb3f8c9094a0L, 285408);
    ]

(* Bindings of one size n, shaped as the benchmark shapes them. *)
let sized (e : Blockability.entry) n =
  match e.kernel.Kernel_def.params with
  | [ "N" ] -> [ [ ("N", n) ] ]
  | [ "M"; "N" ] -> [ [ ("M", n); ("N", n) ] ]
  | [ "N"; "FREQ_PCT" ] ->
      [ [ ("N", n); ("FREQ_PCT", 5) ]; [ ("N", n); ("FREQ_PCT", 50) ] ]
  | [ "N1"; "N2"; "N3" ] ->
      (* band n over n*n/3 points *)
      [ [ ("N1", n * n / 3); ("N2", n); ("N3", n * n / 3) ] ]
  | ps -> Alcotest.failf "%s: unexpected parameters %s" e.name (String.concat "," ps)

(* The environment serve builds for an execute, with a given set-up. *)
let env_with (e : Blockability.entry) setup ~bindings ~seed =
  let env =
    Kernel_def.make_env { e.kernel with Kernel_def.setup } ~bindings ~seed
  in
  e.extra_setup env ~bindings;
  env

let setup_matches_oracle (e : Blockability.entry) () =
  let oracle = Setup_oracle.setup e.kernel.Kernel_def.name in
  let cases =
    e.default_bindings
    :: List.concat_map (sized e) [ 7; 96; 192; 288 ]
  in
  List.iter
    (fun bindings ->
      List.iter
        (fun bindings ->
          List.iter
            (fun seed ->
              let what =
                Printf.sprintf "%s %s seed %d" e.name
                  (String.concat ","
                     (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) bindings))
                  seed
              in
              let got = env_with e e.kernel.Kernel_def.setup ~bindings ~seed in
              let want = env_with e oracle ~bindings ~seed in
              (match Env.diff want got with
              | None -> ()
              | Some m -> Alcotest.failf "%s: %s" what m);
              (* [Env.diff] compares arrays only; conv also sets DT *)
              if Env.has_fscalar want "DT" then
                Alcotest.(check int64) (what ^ " DT")
                  (Int64.bits_of_float (Env.fscalar want "DT"))
                  (Int64.bits_of_float (Env.fscalar got "DT")))
            [ 1; 2; 42 ])
        (* point, then transformed (block sizes bound as well) *)
        [ bindings; e.extra_bindings @ bindings ])
    cases

let suite =
  ( "setup",
    case "lcg stream matches pinned literals" lcg_stream_pinned
    :: List.map
         (fun (e : Blockability.entry) ->
           case
             (Printf.sprintf "%s inputs bitwise equal to the oracle" e.name)
             (setup_matches_oracle e))
         Blockability.entries )
