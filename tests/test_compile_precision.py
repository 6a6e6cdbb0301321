"""Precision compute modes of the compiled inference stack (PR 9).

Covers the three mode guarantees (float64 exact, float32 tolerance-with-
routing-agreement, bitpacked bit-identical), the XNOR+popcount packed ops
across conv geometries, oracle-vs-serving-fabric parity per mode, the
``(model, precision)``-keyed plan cache, and precision validation in every
consumer that grew the knob (oracle, engine, server, fabric, partition
plan, hierarchy runtime).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import (
    PRECISIONS,
    compile_ddnn,
    compile_plan,
    compiled_plan_for,
    invalidate_plan,
    precision_dtype,
    routing_agreement,
    verify_compiled,
)
from repro.compile.cache import cached_plan_count
from repro.compile.ops import PackedConvOp, PackedLinearOp
from repro.core.inference import StagedInferenceEngine
from repro.core.oracle import ExitOracle
from repro.nn import BinaryActivation, BinaryConv2d, BinaryLinear
from repro.nn.layers import Flatten, Sequential
from repro.nn.tensor import Tensor, no_grad

RNG = np.random.default_rng(23)


def eager_forward(module, x: np.ndarray) -> np.ndarray:
    module.eval()
    with no_grad():
        return module(Tensor(x)).data


def sign_input(shape) -> np.ndarray:
    """A ±1 input array (the packed kernels' precondition)."""
    return np.where(RNG.random(shape) < 0.5, -1.0, 1.0)


# --------------------------------------------------------------------------- #
# Mode plumbing basics
# --------------------------------------------------------------------------- #
class TestPrecisionDtypes:
    def test_modes_and_carrier_dtypes(self):
        assert PRECISIONS == ("float64", "float32", "bitpacked")
        assert precision_dtype("float64") == np.float64
        assert precision_dtype("float32") == np.float32
        # bitpacked carries non-packed ops in float64, so the exactness
        # guarantee holds end to end.
        assert precision_dtype("bitpacked") == np.float64

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown precision"):
            precision_dtype("float16")

    def test_plan_buffers_use_mode_dtype(self):
        conv = BinaryConv2d(2, 3, kernel_size=3, padding=1, rng=RNG)
        x = sign_input((2, 2, 8, 8))
        for mode in PRECISIONS:
            plan = compile_plan(Sequential(conv), precision=mode)
            assert plan(x).dtype == precision_dtype(mode)


# --------------------------------------------------------------------------- #
# Packed XNOR+popcount kernels: bit-identical across conv geometry
# --------------------------------------------------------------------------- #
class TestPackedKernels:
    @pytest.mark.parametrize(
        "stride,padding,batch",
        [(1, 0, 1), (1, 1, 1), (1, 2, 4), (2, 0, 3), (2, 1, 1), (3, 2, 2)],
    )
    def test_packed_conv_bit_identical_across_geometry(self, stride, padding, batch):
        conv = BinaryConv2d(3, 5, kernel_size=3, stride=stride, padding=padding, rng=RNG)
        stack = Sequential(conv)
        x = sign_input((batch, 3, 12, 12))
        packed = compile_plan(stack, precision="bitpacked", input_signed=True)
        exact = compile_plan(stack, precision="float64", input_signed=True)
        assert any(isinstance(op, PackedConvOp) for op in packed.ops)
        np.testing.assert_array_equal(packed(x), exact(x))
        np.testing.assert_array_equal(packed(x), eager_forward(stack, x))

    @pytest.mark.parametrize("features,batch", [(17, 1), (64, 3), (130, 2)])
    def test_packed_linear_bit_identical_at_word_boundaries(self, features, batch):
        # 17 / 64 / 130 input features: partial word, exact word, two words
        # plus tail — the padding-bit convention must not leak into any.
        stack = Sequential(BinaryLinear(features, 9, rng=RNG))
        x = sign_input((batch, features))
        packed = compile_plan(stack, precision="bitpacked", input_signed=True)
        exact = compile_plan(stack, precision="float64", input_signed=True)
        assert any(isinstance(op, PackedLinearOp) for op in packed.ops)
        np.testing.assert_array_equal(packed(x), exact(x))

    def test_sign_chain_propagates_packing(self):
        # sign -> binary conv -> sign -> binary linear: both GEMMs eligible.
        stack = Sequential(
            BinaryConv2d(2, 4, kernel_size=3, padding=1, rng=RNG),
            BinaryActivation(),
            Flatten(),
            BinaryLinear(4 * 8 * 8, 6, rng=RNG),
        )
        plan = compile_plan(stack, precision="bitpacked", input_signed=True)
        assert any(isinstance(op, PackedLinearOp) for op in plan.ops)
        x = sign_input((2, 2, 8, 8))
        np.testing.assert_array_equal(
            plan(x), compile_plan(stack, precision="float64", input_signed=True)(x)
        )

    def test_unsigned_input_falls_back_to_float(self):
        # Real-valued input cannot be packed; the cost rule must keep the
        # float GEMM and stay exact.
        stack = Sequential(BinaryConv2d(3, 4, kernel_size=3, padding=1, rng=RNG))
        plan = compile_plan(stack, precision="bitpacked", input_signed=False)
        assert not any(isinstance(op, PackedConvOp) for op in plan.ops)
        x = RNG.normal(size=(2, 3, 10, 10))
        np.testing.assert_array_equal(
            plan(x), compile_plan(stack, precision="float64")(x)
        )


# --------------------------------------------------------------------------- #
# verify_compiled: the per-mode guarantees on a real trained DDNN
# --------------------------------------------------------------------------- #
class TestVerifyCompiledModes:
    def test_float64_default_guarantee(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn)
        diff = verify_compiled(trained_ddnn, compiled, tiny_test.images)
        assert diff < 1e-6

    def test_float32_tolerance_and_agreement(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn, precision="float32")
        diff = verify_compiled(trained_ddnn, compiled, tiny_test.images)
        assert diff < 1e-3  # fp32 tolerance, not fp64 exactness

    def test_bitpacked_bit_identity(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn, precision="bitpacked")
        verify_compiled(trained_ddnn, compiled, tiny_test.images)
        reference = compile_ddnn(trained_ddnn, precision="float64")
        packed_out = compiled(tiny_test.images)
        exact_out = reference(tiny_test.images)
        for packed_logits, exact_logits in zip(
            packed_out.exit_logits, exact_out.exit_logits
        ):
            np.testing.assert_array_equal(packed_logits, exact_logits)

    def test_mismatched_precision_argument_rejected(self, trained_ddnn, tiny_test):
        compiled = compile_ddnn(trained_ddnn, precision="float32")
        with pytest.raises(ValueError, match="does not match"):
            verify_compiled(
                trained_ddnn, compiled, tiny_test.images, precision="float64"
            )

    def test_routing_agreement_pooled_grid(self, trained_ddnn, tiny_test):
        logits = np.stack(
            [np.asarray(t.data) for t in _eager_exit_logits(trained_ddnn, tiny_test)]
        )
        assert routing_agreement(logits, logits) == 1.0
        # Flipping one exit's logits hard must drop agreement below 1.
        corrupted = logits.copy()
        corrupted[0] = -corrupted[0]
        assert routing_agreement(logits, corrupted) < 1.0
        with pytest.raises(ValueError, match="same exits"):
            routing_agreement(logits, logits[:-1])


def _eager_exit_logits(model, dataset):
    model.eval()
    with no_grad():
        return model(dataset.images).exit_logits


# --------------------------------------------------------------------------- #
# Oracle vs engine parity per mode
# --------------------------------------------------------------------------- #
def _served(model, dataset, compile=False, precision="float64"):
    """The one-tier fabric replaying ``dataset`` in 64-sample batches (the
    capture's default chunks)."""
    from repro.serving import BatchingPolicy, DistributedServingFabric

    server = DistributedServingFabric.single_tier(
        model,
        0.8,
        compile=compile,
        precision=precision,
        batching=BatchingPolicy(max_batch_size=64, max_wait_s=0.0),
    )
    return server.serve_dataset(dataset)


class TestOracleEngineParity:
    @pytest.mark.parametrize("mode", PRECISIONS)
    def test_oracle_routes_like_engine(self, trained_ddnn, tiny_test, mode):
        """At every mode the offline oracle answers byte for byte what the
        online one-tier fabric at that mode answers."""
        routed = ExitOracle.capture(trained_ddnn, tiny_test, precision=mode).route(0.8)
        responses = _served(trained_ddnn, tiny_test, compile=True, precision=mode)
        np.testing.assert_array_equal(routed.predictions, [r.prediction for r in responses])
        np.testing.assert_array_equal(routed.exit_indices, [r.exit_index for r in responses])
        np.testing.assert_array_equal(routed.entropies, [r.entropy for r in responses])

    def test_exact_modes_route_identically_to_eager(self, trained_ddnn, tiny_test):
        eager = _served(trained_ddnn, tiny_test)
        for mode in ("float64", "bitpacked"):
            compiled = ExitOracle.capture(trained_ddnn, tiny_test, precision=mode).route(0.8)
            np.testing.assert_array_equal([r.prediction for r in eager], compiled.predictions)
            np.testing.assert_array_equal([r.exit_index for r in eager], compiled.exit_indices)

    def test_shed_answers_use_the_first_tier_precision(self, trained_ddnn, tiny_test):
        """Regression: a float32 fabric's shed answers came from a float64
        plan.  They must equal a float32 capture's first exit exactly."""
        from repro.serving import DistributedServingFabric, ShedToLocalExit

        server = DistributedServingFabric.single_tier(
            trained_ddnn,
            0.8,
            compile=True,
            precision="float32",
            capacity=2,
            admission=ShedToLocalExit(),
        )
        row_of = {rid: row for row, rid in enumerate(server.submit_many(list(tiny_test.images)))}
        shed = [r for r in server.run_until_idle(drain=True) if r.shed]
        assert shed
        oracle = ExitOracle.capture(trained_ddnn, tiny_test, batch_size=1, precision="float32")
        rows = [row_of[r.request_id] for r in shed]
        assert [r.exit_index for r in shed] == [0] * len(shed)
        np.testing.assert_array_equal([r.prediction for r in shed], oracle.predictions[0, rows])
        np.testing.assert_array_equal([r.entropy for r in shed], oracle.entropies[0, rows])


# --------------------------------------------------------------------------- #
# Plan cache keyed by (model, precision)
# --------------------------------------------------------------------------- #
class TestPlanCachePerPrecision:
    def test_modes_coexist_and_invalidate_together(self, trained_ddnn):
        invalidate_plan(trained_ddnn)
        baseline = cached_plan_count()
        exact = compiled_plan_for(trained_ddnn)
        fp32 = compiled_plan_for(trained_ddnn, "float32")
        assert exact is not fp32
        assert cached_plan_count() == baseline + 2
        # Hits: same objects come back, nothing new is compiled.
        assert compiled_plan_for(trained_ddnn) is exact
        assert compiled_plan_for(trained_ddnn, "float32") is fp32
        assert cached_plan_count() == baseline + 2
        # One invalidation call evicts every mode's plan for the model.
        invalidate_plan(trained_ddnn)
        assert cached_plan_count() == baseline
        assert compiled_plan_for(trained_ddnn) is not exact

    def test_cache_rejects_unknown_mode(self, trained_ddnn):
        with pytest.raises(ValueError, match="unknown precision"):
            compiled_plan_for(trained_ddnn, "int8")


# --------------------------------------------------------------------------- #
# Consumer validation: every knob rejects bad modes loudly
# --------------------------------------------------------------------------- #
class TestConsumerValidation:
    def test_cascade_and_engine_reject_unknown_mode(self, trained_ddnn, tiny_test):
        with pytest.raises(ValueError, match="unknown precision"):
            ExitOracle.capture(trained_ddnn, tiny_test, precision="tf32")
        with pytest.raises(ValueError, match="unknown precision"):
            StagedInferenceEngine(trained_ddnn, 0.8, compile=True, precision="tf32")

    def test_server_requires_compile_for_reduced_precision(self, trained_ddnn):
        from repro.serving import DistributedServingFabric

        with pytest.raises(ValueError):
            DistributedServingFabric.single_tier(
                trained_ddnn, 0.8, compile=False, precision="float32"
            )
        server = DistributedServingFabric.single_tier(
            trained_ddnn, 0.8, compile=True, precision="float32"
        )
        assert server.precisions == ["float32"]

    def test_fabric_per_tier_modes_validated(self, trained_ddnn):
        from repro.hierarchy.plan import PartitionPlan
        from repro.serving.fabric import DistributedServingFabric

        deployment = PartitionPlan(trained_ddnn).materialize()
        with pytest.raises(ValueError):
            DistributedServingFabric(
                deployment, 0.8, compile=True, precision="float128"
            )
        with pytest.raises(ValueError):
            DistributedServingFabric(
                deployment, 0.8, compile=False, precision="float32"
            )

    def test_fabric_from_plan_mixed_modes_serves(self, trained_ddnn, tiny_test):
        from repro.hierarchy.plan import PartitionPlan
        from repro.serving.fabric import DistributedServingFabric

        plan = PartitionPlan(trained_ddnn)
        plan.precision = ("bitpacked",) + ("float64",) * (plan.num_tiers - 1)
        fabric = DistributedServingFabric.from_plan(plan, 0.8, compile=True)
        assert list(fabric.precisions) == list(plan.precisions())
        # from_plan derives modes from the plan; an explicit kwarg conflicts.
        with pytest.raises(ValueError, match="precision"):
            DistributedServingFabric.from_plan(
                plan, 0.8, compile=True, precision="float64"
            )
        responses = fabric.serve_dataset(tiny_test)
        baseline = StagedInferenceEngine(trained_ddnn, 0.8).run(tiny_test)
        np.testing.assert_array_equal(
            np.array([r.prediction for r in responses]), baseline.predictions
        )

    def test_hierarchy_runtime_requires_compile(self, trained_ddnn):
        from repro.hierarchy import partition_ddnn
        from repro.hierarchy.runtime import HierarchyRuntime

        with pytest.raises(ValueError):
            HierarchyRuntime(
                partition_ddnn(trained_ddnn), 0.8, compile=False, precision="float32"
            )

    def test_partition_plan_precisions_broadcast_and_validate(self, trained_ddnn):
        from repro.hierarchy.plan import PartitionPlan

        plan = PartitionPlan(trained_ddnn)
        assert plan.precisions() == ("float64",) * plan.num_tiers
        mixed = PartitionPlan(
            trained_ddnn,
            precision=("bitpacked",) + ("float64",) * (plan.num_tiers - 1),
        )
        assert mixed.precisions()[0] == "bitpacked"
        with pytest.raises(ValueError):
            PartitionPlan(trained_ddnn, precision="int4")
        with pytest.raises(ValueError):
            PartitionPlan(
                trained_ddnn, precision=("float64",) * (plan.num_tiers + 1)
            )
