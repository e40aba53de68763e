let () =
  Alcotest.run "rcc"
    ([
      Test_common.suite;
      Test_crypto.suite;
      Test_sim.suite;
      Test_trace.suite;
      Test_storage.suite;
      Test_workload.suite;
      Test_messages.suite;
      Test_codec.suite;
      Test_replica.suite;
      Test_client_pool.suite;
      Test_exec_parallel.suite;
      Test_core.suite;
      Test_pbft.suite;
      Test_zyzzyva.suite;
      Test_hotstuff.suite;
      Test_cft.suite;
      Test_coordinator.suite;
      Test_runtime.suite;
      Test_state_transfer.suite;
      Test_journal.suite;
      Test_chaos.suite;
      Test_integration.suite;
      Test_golden.suite;
    ]
    @ Conformance.suites)
