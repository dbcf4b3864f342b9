(* The recorded output: MD5 of every cell's digest string at [seed], the
   benchmark's default seed.  The cells are those of Scale, Fault_sweep
   and Oversub at the benchmark's own sizes, not those of the library's
   determinism goldens.  Regenerate with [skybench --workload W --record]
   only for a change meant to alter simulated behaviour. *)

let seed = 5

let digests =
  [
    ( "steady",
      [
        ("steady-pareto/percpu", "c2bafd205313129b270db5485d1031f6");
        ("steady-pareto/centralized", "e1efd5ddeb4c37ed2884a641d2992bf1");
        ("steady-pareto/hybrid", "d6bbba6cb776151a3a6d74ad9e88ce93");
        ("steady-pareto/worksteal", "eb925677fdebd17af7921be9e8e07e84");
      ] );
    ( "burst",
      [
        ("bursty-mmpp/percpu", "d9193d577e5b2c43ab90a2500d798c23");
        ("bursty-mmpp/centralized", "2c7965f3a010874c2dde218aedc66bb7");
        ("bursty-mmpp/hybrid", "04272ea8dffe6e7575d2ee83eba667d7");
        ("bursty-mmpp/worksteal", "bb759022f87371ccef412471132569d5");
        ("bursty-mmpp/percpu/stream1", "d712583e96a7bdc24de3d20b1a4130af");
        ("bursty-mmpp/centralized/stream1", "52e08995698a047ec2a0f50812547957");
        ("bursty-mmpp/hybrid/stream1", "a65aecfdfea26d96c991d8b2975de2f8");
        ("bursty-mmpp/worksteal/stream1", "7e9854bf29779b0c0a7aeb80fc17041d");
        ("bursty-mmpp/percpu/stream2", "306269e1c72e9e5b3cc7af597a926a65");
        ("bursty-mmpp/centralized/stream2", "0bbd26efbfcbf0bd0948d04d570d24ad");
        ("bursty-mmpp/hybrid/stream2", "41ccd6aa4e556619fbc5d5708fb0c16f");
        ("bursty-mmpp/worksteal/stream2", "60ab9d195c0128e8caeb6d3cc309efbd");
        ("bursty-mmpp/percpu/stream3", "66f91c3b84785926688e662aecbc3cc9");
        ("bursty-mmpp/centralized/stream3", "88d2dc6e0e0c38a32d0ff63f19cb7e3a");
        ("bursty-mmpp/hybrid/stream3", "21f608752511dda48e5b77c088f2816c");
        ("bursty-mmpp/worksteal/stream3", "c7b3f835b977ff120d56c21505bec204");
        ("bursty-mmpp/percpu/stream4", "1162a85737c42aca066796d8ec8aac4a");
        ("bursty-mmpp/centralized/stream4", "b6261fb46381524481eab4e009287feb");
        ("bursty-mmpp/hybrid/stream4", "5f1d95cb77100b2516bdd21d2b9a45e0");
        ("bursty-mmpp/worksteal/stream4", "85681df801cbf428b6bf0c6f225e1c0d");
        ("bursty-mmpp/percpu/stream5", "5ba811ebadfd49c6f5597a759c9c83b1");
        ("bursty-mmpp/centralized/stream5", "3e938027740dfff6f7cee97d43dbb088");
        ("bursty-mmpp/hybrid/stream5", "4f0174294a0b554addee89c40fa0c7df");
        ("bursty-mmpp/worksteal/stream5", "a7e9a9f12174ce4e7bb7514d20e3f333");
      ] );
    ( "faults",
      [
        ("fault/percpu/0.00", "c753c3bfeaa0778902363af36a04df69");
        ("fault/percpu/0.01", "4fffc20bcc2039d62807b1904e719654");
        ("fault/percpu/0.05", "c8458f13fbaef9e4e6ee221273ab8c7e");
        ("fault/centralized/0.00", "5d4c9c7f01044ce5961133301c9b0592");
        ("fault/centralized/0.01", "487ac396fd2d0763ad2caa070d88a0b9");
        ("fault/centralized/0.05", "34fcea518ed7e29860314718bd07f2c3");
        ("fault/hybrid/0.00", "bc4c81eb3ea9fe514af69ea3f72e9d3e");
        ("fault/hybrid/0.01", "36bbdc3f1c55e23d0d83b49733a64de5");
        ("fault/hybrid/0.05", "d98be413228f9e3c9acb256856f96751");
        ("fault/worksteal/0.00", "81e06c1ffab3db0ee13b99cbe936b28d");
        ("fault/worksteal/0.01", "5dcbd8a234173edd615b070cc19c9981");
        ("fault/worksteal/0.05", "6462917dd26e5ea3d5c0188fa359d4ea");
      ] );
    ( "fleet",
      [
        ("fleet/none", "33c3923bf1c0c5430fe4020556e366d7");
        ("fleet/hoard", "a58abc411664ec8a7864efdf04de8bff");
        ("fleet/hoard-open", "dd48b2c584cefa3e32782eef88aec817");
        ("fleet/stale", "c171fe17752b138c7d937c0373cc4dca");
        ("fleet/crash", "f9917ebffa628604c8b2715503a23b56");
      ] );
  ]
