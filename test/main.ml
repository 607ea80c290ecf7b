let () =
  Alcotest.run "sjos"
    [
      ("xml", Test_xml.suite);
      ("xml-fuzz", Test_xml_fuzz.suite);
      ("storage", Test_storage.suite);
      ("storage-extra", Test_storage_extra.suite);
      ("histogram", Test_histogram.suite);
      ("pattern", Test_pattern.suite);
      ("xpath", Test_xpath.suite);
      ("cost+plan", Test_cost_plan.suite);
      ("exec", Test_exec.suite);
      ("batch", Test_batch.suite);
      ("optimizer", Test_optimizer.suite);
      ("datagen", Test_datagen.suite);
      ("engine", Test_engine.suite);
      ("cache", Test_cache.suite);
      ("obs", Test_obs.suite);
      ("extensions", Test_extensions.suite);
      ("guard", Test_guard.suite);
      ("par", Test_par.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("work", Test_work.suite);
      ("twig", Test_twig.suite);
      ("bigopt", Test_bigopt.suite);
      ("properties", Test_properties.suite);
    ]
