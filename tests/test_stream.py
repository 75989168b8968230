import numpy as np
import pytest

from growcl.stream import ROTATION_JITTER_DEG, SHIFT_FRACTION, StreamSpec, StreamError, generate


def spec(**kw):
    base = dict(n_tasks=3, classes_per_task=3, dim=64, samples_per_class=40, seed=5)
    base.update(kw)
    return StreamSpec(**base)


class TestSpec:
    def test_schedule_defaults_to_zeros(self):
        s = spec()
        assert s.similarity_schedule == (0.0, 0.0, 0.0)

    def test_schedule_length_checked(self):
        with pytest.raises(StreamError):
            spec(similarity_schedule=(0.0, 1.0))

    def test_schedule_range_checked(self):
        with pytest.raises(StreamError):
            spec(similarity_schedule=(0.0, 2.0, 0.0))

    def test_class_ids_disjoint(self):
        s = spec()
        seen = set()
        for t in range(s.n_tasks):
            ids = set(s.classes_of(t))
            assert not ids & seen
            seen |= ids


class TestGenerate:
    def test_bit_identical_across_calls(self):
        a = generate(spec())
        b = generate(spec())
        for da, db in zip(a, b):
            assert np.array_equal(da.x_train, db.x_train)
            assert np.array_equal(da.y_test, db.y_test)
            assert np.array_equal(da.frame, db.frame)

    def test_split_sizes_and_disjointness(self):
        for ds in generate(spec()):
            assert len(ds.y_train) == 3 * 32
            assert len(ds.y_test) == 3 * 8
            # no identical row appears in both splits
            train_rows = {r.tobytes() for r in ds.x_train}
            assert all(r.tobytes() not in train_rows for r in ds.x_test)

    def test_labels_match_class_ids(self):
        for ds in generate(spec()):
            assert set(ds.y_train) == set(ds.class_ids)
            assert set(ds.y_test) == set(ds.class_ids)

    def test_dissimilar_tasks_near_orthogonal_means(self):
        # Monte-Carlo over seeds: fresh frames have near-zero mean cosine.
        cosines = []
        for seed in range(8):
            tasks = generate(spec(seed=seed, n_tasks=4))
            for a in range(4):
                for b in range(a + 1, 4):
                    fa, fb = tasks[a].frame, tasks[b].frame
                    cosines.extend((fa * fb).sum(axis=0).tolist())
        assert abs(float(np.mean(cosines))) < 0.2

    def test_similar_task_frame_alignment(self):
        s = spec(n_tasks=2, similarity_schedule=(0.0, 1.0))
        t1, t2 = generate(s)
        # Each derived class direction stays within the rotation jitter plus
        # the small mean-shift allowance of its source direction.
        bound = np.radians(ROTATION_JITTER_DEG) + np.arcsin(min(1.0, 4 * SHIFT_FRACTION)) + 0.05
        for j in range(s.classes_per_task):
            cos = float(t1.frame[:, j] @ t2.frame[:, j])
            assert np.arccos(np.clip(cos, -1, 1)) <= bound

    def test_means_recoverable_from_samples(self):
        ds = generate(spec(samples_per_class=200))[0]
        for j, cls in enumerate(ds.class_ids):
            emp = ds.x_train[ds.y_train == cls].mean(axis=0)
            target = 2.0 * ds.frame[:, j]
            assert np.linalg.norm(emp - target) < 0.5
