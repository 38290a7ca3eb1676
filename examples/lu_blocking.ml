(* The paper's centrepiece (§5.1-§5.2): derive block LU mechanically from
   the point algorithm, watch each compiler step, verify equivalence, and
   see why partial pivoting additionally needs commutativity knowledge.

   Run with:  dune exec examples/lu_blocking.exe *)

let show_derivation name entry =
  Printf.printf "==== %s (%s) ====\n" name entry.Blockability.paper_ref;
  print_string
    (Stmt.block_to_string entry.Blockability.kernel.Kernel_def.block);
  match Blockability.derive entry with
  | Error m -> Printf.printf "FAILED: %s\n" m
  | Ok { result; steps } ->
      print_endline "\n-- compiler steps:";
      List.iter
        (fun (s : Blocker.trace_step) -> Printf.printf "   %s: %s\n" s.name s.detail)
        steps;
      print_endline "\n-- derived block algorithm:";
      print_string (Stmt.to_string result);
      (match Blockability.verify entry ~bindings:[ ("N", 30) ] ~seed:123 with
      | Ok () ->
          print_endline
            "-- verified: bit-identical to the point algorithm (N=30, ragged blocks)"
      | Error m -> Printf.printf "-- VERIFICATION FAILED: %s\n" m);
      print_newline ()

let () =
  show_derivation "LU decomposition" (Option.get (Blockability.find "lu"));
  show_derivation "LU with partial pivoting"
    (Option.get (Blockability.find "lu_pivot"));
  (* The §5.2 point: without commutativity knowledge the derivation is
     impossible — running the plain-dependence driver on the pivoting
     kernel must fail. *)
  print_endline "==== pivoting without commutativity knowledge ====";
  (match
     Blocker.block_lu ~dctx:(Derivation.create ()) ~block_size_var:"KS"
       K_lu_pivot.point_loop
   with
  | Ok _ -> print_endline "unexpectedly succeeded!"
  | Error m -> Printf.printf "refused, as the paper predicts:\n  %s\n" m);
  print_newline ();
  (* And the Section-6 answer for algorithms like Householder QR that have
     no derivable block form: write the block algorithm in the extended
     language and let the compiler pick the block size. *)
  print_endline "==== Figure 11: block LU in the extended language ====";
  print_string (Ext.to_string Ext.fig11_block_lu);
  match Lower.lower ~machine:Arch.rs6000_540 Ext.fig11_block_lu with
  | Ok lowered ->
      print_endline "-- lowered (block size chosen for the RS/6000-540 cache):";
      print_string (Stmt.to_string lowered)
  | Error m -> Printf.printf "lowering failed: %s\n" m
