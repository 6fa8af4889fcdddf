let () =
  Alcotest.run "typeclasses"
    (Test_lexer.tests @ Test_parser.tests @ Test_types.tests
    @ Test_static.tests @ Test_infer.tests @ Test_eval.tests
    @ Test_translate.tests @ Test_opt.tests @ Test_tags.tests
    @ Test_prelude.tests @ Test_props.tests @ Test_programs.tests
    @ Test_fuzz.tests @ Test_deferral.tests @ Test_errors.tests
    @ Test_check.tests @ Test_cli.tests
    @ Test_differential.tests @ Test_vm.tests @ Test_obs.tests
    @ Test_resilience.tests @ Test_metrics.tests @ Test_rtrace.tests
    @ Test_scale.tests @ Test_check_cache.tests @ Test_net.tests
    @ Test_snapshot.tests @ Test_compile_paths.tests @ Test_scope.tests
    @ Test_counters.tests)
