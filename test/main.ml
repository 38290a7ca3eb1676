let () =
  Alcotest.run "blockability"
    [
      Test_expr.suite;
      Test_affine.suite;
      Test_symbolic.suite;
      Test_stmt_interp.suite;
      Test_cache.suite;
      Test_dependence.suite;
      Test_section.suite;
      Test_transform.suite;
      Test_fsa.suite;
      Test_drivers.suite;
      Test_native.suite;
      Test_lang.suite;
      Test_support.suite;
      Test_trace.suite;
      Test_profile.suite;
      Test_parallel.suite;
      Test_obs.suite;
      Test_fuzz.suite;
      Test_codegen.suite;
      Test_serve.suite;
      Test_setup.suite;
    ]
