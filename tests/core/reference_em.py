"""Reference EM for the TCAM family — the oracle the kernels are tested against.

One dense formula per equation of the paper, over all ``R`` ratings at
once, with ``np.add.at`` scatters and fresh temporaries everywhere. It
shares no code with :mod:`repro.core.engine` (no blocks, no workspaces,
no fused scaling, no ``bincount`` scatter), so agreement between the two
is evidence about the equations rather than about a shared helper.

Conventions match the production models so results are comparable:

* ``triples`` is ``(users, intervals, items, scores)``, ``shape`` is
  ``(N, T, V)``; topic–item matrices are ``(K, V)``.
* E-steps return ``(stats, log_likelihood)`` with the numerators keyed as
  the kernels key them; topic–item numerators are ``(V, K)``.
* ``EPS`` guards the same denominators the models guard.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12


def _scatter(rows, values, num_rows):
    """``out[rows[r]] += values[r]`` for every rating ``r``."""
    out = np.zeros((num_rows,) + values.shape[1:])
    np.add.at(out, rows, values)
    return out


def _normalize(matrix, smoothing):
    """Row-normalise ``matrix + smoothing``; all-zero rows become uniform."""
    smoothed = matrix + smoothing
    dead = smoothed.sum(axis=1) <= EPS
    smoothed[dead] = 1.0
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def _mixture_posterior(lam_r, p_interest, p_context):
    """Eq. 4 and the per-rating likelihood term of Eq. 3."""
    prob = lam_r * p_interest + (1 - lam_r) * p_context + EPS
    return lam_r * p_interest / prob, prob


def _user_lambda(lam_num, triples, num_users, personalized=True):
    """Eq. 11 (per user), or one global λ = Σ c·P(s=1) / Σ c."""
    u, _, _, c = triples
    if not personalized:
        return np.clip(np.full(num_users, lam_num.sum() / c.sum()), 0.0, 1.0)
    mass = _scatter(u, c, num_users)
    return np.clip(lam_num / np.where(mass <= 0, 1.0, mass), 0.0, 1.0)


# -- TTCAM ------------------------------------------------------------------


def ttcam_estep(triples, shape, state):
    """Eq. 4–6 and 13–14, folded into the numerators of Eq. 8, 9, 11, 15, 16."""
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    joint_z = state["theta"][u] * state["phi"][:, v].T  # θ_uz · φ_zv
    joint_x = state["theta_time"][t] * state["phi_time"][:, v].T  # θ′_tx · φ′_xv
    p_interest = joint_z.sum(axis=1)  # Eq. 2
    p_context = joint_x.sum(axis=1)  # Eq. 12
    ps1, prob = _mixture_posterior(state["lambda_u"][u], p_interest, p_context)
    resp_z = joint_z / (p_interest + EPS)[:, None] * ps1[:, None]  # Eq. 5 · Eq. 4 = Eq. 6
    resp_x = joint_x / (p_context + EPS)[:, None] * (1 - ps1)[:, None]  # Eq. 13–14
    stats = {
        "theta_num": _scatter(u, c[:, None] * resp_z, n),
        "phi_num": _scatter(v, c[:, None] * resp_z, v_dim),
        "theta_time_num": _scatter(t, c[:, None] * resp_x, t_dim),
        "phi_time_num": _scatter(v, c[:, None] * resp_x, v_dim),
        "lam_num": _scatter(u, c * ps1, n),
    }
    return stats, float(np.sum(c * np.log(prob)))


def ttcam_mstep(stats, triples, shape, smoothing, personalized_lambda=True):
    """Eq. 8, 9, 11, 15, 16."""
    return {
        "theta": _normalize(stats["theta_num"], smoothing),
        "phi": _normalize(stats["phi_num"].T, smoothing),
        "theta_time": _normalize(stats["theta_time_num"], smoothing),
        "phi_time": _normalize(stats["phi_time_num"].T, smoothing),
        "lambda_u": _user_lambda(stats["lam_num"], triples, shape[0], personalized_lambda),
    }


# -- ITCAM ------------------------------------------------------------------


def itcam_estep(triples, shape, state):
    """Eq. 4–6, folded into the numerators of Eq. 8–11 (``time_num`` is ``(T, V)``)."""
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    joint = state["theta"][u] * state["phi"][:, v].T
    p_interest = joint.sum(axis=1)
    p_context = state["theta_time"][t, v]  # P(v|θ′_t), read directly
    ps1, prob = _mixture_posterior(state["lambda_u"][u], p_interest, p_context)
    resp = joint / (p_interest + EPS)[:, None] * ps1[:, None]
    time_num = np.zeros((t_dim, v_dim))
    np.add.at(time_num, (t, v), c * (1 - ps1))
    stats = {
        "theta_num": _scatter(u, c[:, None] * resp, n),
        "phi_num": _scatter(v, c[:, None] * resp, v_dim),
        "time_num": time_num,
        "lam_num": _scatter(u, c * ps1, n),
    }
    return stats, float(np.sum(c * np.log(prob)))


def itcam_mstep(stats, triples, shape, smoothing):
    """Eq. 8–11."""
    return {
        "theta": _normalize(stats["theta_num"], smoothing),
        "phi": _normalize(stats["phi_num"].T, smoothing),
        "theta_time": _normalize(stats["time_num"], smoothing),
        "lambda_u": _user_lambda(stats["lam_num"], triples, shape[0]),
    }


# -- UT / TT baselines --------------------------------------------------------


def item_background(triples, shape):
    """θ_B: the empirical item distribution the baselines smooth with."""
    _, _, v, c = triples
    mass = _scatter(v, c, shape[2])
    return mass / mass.sum()


def _topic_estep(docs, num_docs, triples, shape, doc_topics, topic_items, background, lam_b):
    """Background-smoothed PLSA: P(v|d) = λ_B·θ_B[v] + (1-λ_B)·Σ_z θ_dz φ_zv."""
    _, _, v, c = triples
    joint = (1 - lam_b) * doc_topics[docs] * topic_items[:, v].T
    prob = lam_b * background[v] + joint.sum(axis=1) + EPS
    resp = joint / prob[:, None]  # P(z | d, v); the rest went to the background
    stats = {
        "theta_num": _scatter(docs, c[:, None] * resp, num_docs),
        "phi_num": _scatter(v, c[:, None] * resp, shape[2]),
    }
    return stats, float(np.sum(c * np.log(prob)))


def ut_estep(triples, shape, state, background, lam_b):
    """UT: documents are users."""
    return _topic_estep(
        triples[0], shape[0], triples, shape, state["theta"], state["phi"], background, lam_b
    )


def ut_mstep(stats, smoothing):
    return {
        "theta": _normalize(stats["theta_num"], smoothing),
        "phi": _normalize(stats["phi_num"].T, smoothing),
    }


def tt_estep(triples, shape, state, background, lam_b):
    """TT: documents are intervals."""
    return _topic_estep(
        triples[1],
        shape[1],
        triples,
        shape,
        state["theta_time"],
        state["phi_time"],
        background,
        lam_b,
    )


def tt_mstep(stats, smoothing):
    return {
        "theta_time": _normalize(stats["theta_num"], smoothing),
        "phi_time": _normalize(stats["phi_num"].T, smoothing),
    }


# -- shared topics (Section 2's TimeUserLDA-style alternative) ---------------


def shared_estep(triples, shape, state):
    """Both branches emit from one φ: s=1 draws z ~ θ_u, s=0 draws z ~ θ′_t."""
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    phi_v = state["phi"][:, v].T
    joint_z = state["theta"][u] * phi_v
    joint_x = state["theta_time"][t] * phi_v
    p_interest, p_context = joint_z.sum(axis=1), joint_x.sum(axis=1)
    ps1, prob = _mixture_posterior(state["lambda_u"][u], p_interest, p_context)
    resp_z = joint_z / (p_interest + EPS)[:, None] * ps1[:, None]
    resp_x = joint_x / (p_context + EPS)[:, None] * (1 - ps1)[:, None]
    stats = {
        "theta_num": _scatter(u, c[:, None] * resp_z, n),
        "phi_num": _scatter(v, c[:, None] * resp_z, v_dim),
        "theta_time_num": _scatter(t, c[:, None] * resp_x, t_dim),
        "phi_time_num": _scatter(v, c[:, None] * resp_x, v_dim),
        "lam_num": _scatter(u, c * ps1, n),
    }
    return stats, float(np.sum(c * np.log(prob)))


def shared_mstep(stats, triples, shape, smoothing):
    """TTCAM's M-step with both branches' item counts pooled into the one φ."""
    return {
        "theta": _normalize(stats["theta_num"], smoothing),
        "theta_time": _normalize(stats["theta_time_num"], smoothing),
        "phi": _normalize((stats["phi_num"] + stats["phi_time_num"]).T, smoothing),
        "lambda_u": _user_lambda(stats["lam_num"], triples, shape[0]),
    }


# -- background TTCAM (Section 6, item 3) -------------------------------------


def background_estep(triples, shape, state, background, lam_b):
    """P(v|u,t) = λ_B·θ_B[v] + (1-λ_B)·[λ_u·P(v|θ_u) + (1-λ_u)·P(v|θ′_t)]."""
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    joint_z = state["theta"][u] * state["phi"][:, v].T
    joint_x = state["theta_time"][t] * state["phi_time"][:, v].T
    p_interest, p_context = joint_z.sum(axis=1), joint_x.sum(axis=1)
    lam_r = state["lambda_u"][u]
    part_interest = (1 - lam_b) * lam_r * p_interest
    part_context = (1 - lam_b) * (1 - lam_r) * p_context
    prob = lam_b * background[v] + part_interest + part_context + EPS
    r_interest, r_context = part_interest / prob, part_context / prob
    resp_z = joint_z / (p_interest + EPS)[:, None] * r_interest[:, None]
    resp_x = joint_x / (p_context + EPS)[:, None] * r_context[:, None]
    stats = {
        "theta_num": _scatter(u, c[:, None] * resp_z, n),
        "phi_num": _scatter(v, c[:, None] * resp_z, v_dim),
        "theta_time_num": _scatter(t, c[:, None] * resp_x, t_dim),
        "phi_time_num": _scatter(v, c[:, None] * resp_x, v_dim),
        "lam_num": _scatter(u, c * r_interest, n),
        "nonbg_num": _scatter(u, c * (r_interest + r_context), n),
    }
    return stats, float(np.sum(c * np.log(prob)))


def background_mstep(stats, smoothing):
    """TTCAM's M-step; λ_u is the interest share of the non-background mass."""
    nonbg = stats["nonbg_num"]
    return {
        "theta": _normalize(stats["theta_num"], smoothing),
        "phi": _normalize(stats["phi_num"].T, smoothing),
        "theta_time": _normalize(stats["theta_time_num"], smoothing),
        "phi_time": _normalize(stats["phi_time_num"].T, smoothing),
        "lambda_u": np.clip(stats["lam_num"] / np.where(nonbg <= 0, 1.0, nonbg), 0.0, 1.0),
    }


# -- drifting interests (Section 6, item 2) -----------------------------------


def drift_estep(triples, shape, state, epoch_length):
    """TTCAM with θ_{u,e} for the rating's epoch e = t // epoch_length.

    ``state["theta"]`` is ``(E, N, K1)``; λ stays per user.
    """
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    theta = state["theta"]
    epoch = t // epoch_length
    joint_z = theta[epoch, u] * state["phi"][:, v].T
    joint_x = state["theta_time"][t] * state["phi_time"][:, v].T
    p_interest, p_context = joint_z.sum(axis=1), joint_x.sum(axis=1)
    ps1, prob = _mixture_posterior(state["lambda_u"][u], p_interest, p_context)
    resp_z = joint_z / (p_interest + EPS)[:, None] * ps1[:, None]
    resp_x = joint_x / (p_context + EPS)[:, None] * (1 - ps1)[:, None]
    theta_num = np.zeros(theta.shape)
    np.add.at(theta_num, (epoch, u), c[:, None] * resp_z)
    stats = {
        "theta_num": theta_num,
        "phi_num": _scatter(v, c[:, None] * resp_z, v_dim),
        "theta_time_num": _scatter(t, c[:, None] * resp_x, t_dim),
        "phi_time_num": _scatter(v, c[:, None] * resp_x, v_dim),
        "lam_num": _scatter(u, c * ps1, n),
    }
    return stats, float(np.sum(c * np.log(prob)))


def drift_mstep(stats, triples, shape, smoothing, coupling):
    """TTCAM's M-step; each epoch's interest counts first take in ``coupling``
    times those of the epochs before and after it."""
    counts = stats["theta_num"]
    coupled = counts.copy()
    coupled[1:] += coupling * counts[:-1]
    coupled[:-1] += coupling * counts[1:]
    return {
        "theta": np.stack([_normalize(epoch, smoothing) for epoch in coupled]),
        "phi": _normalize(stats["phi_num"].T, smoothing),
        "theta_time": _normalize(stats["theta_time_num"], smoothing),
        "phi_time": _normalize(stats["phi_time_num"].T, smoothing),
        "lambda_u": _user_lambda(stats["lam_num"], triples, shape[0]),
    }


# -- social influence (Section 6, item 1) -------------------------------------


def social_estep(triples, shape, state, friends):
    """P(v|u,t) = w_u0·P(v|θ_u) + w_u1·P(v|θ̄_{N(u)}) + w_u2·P(v|θ′_t).

    ``friends[u]`` lists u's friends; θ̄_{N(u)} is their mean interest,
    or θ_u for a user without friends.
    """
    u, t, v, c = triples
    n, t_dim, v_dim = shape
    theta = state["theta"]
    social = np.array([theta[f].mean(axis=0) if len(f) else theta[i] for i, f in enumerate(friends)])
    phi_v = state["phi"][:, v].T
    joint = [
        theta[u] * phi_v,
        social[u] * phi_v,
        state["theta_time"][t] * state["phi_time"][:, v].T,
    ]
    p = np.stack([branch.sum(axis=1) for branch in joint], axis=1)
    weighted = state["influence"][u] * p
    prob = weighted.sum(axis=1) + EPS
    r = weighted / prob[:, None]  # P(branch | u, t, v)
    resp = [joint[i] / (p[:, i] + EPS)[:, None] * r[:, i][:, None] for i in range(3)]
    stats = {
        "theta_num": _scatter(u, c[:, None] * resp[0], n),
        "phi_num": _scatter(v, c[:, None] * (resp[0] + resp[1]), v_dim),
        "theta_time_num": _scatter(t, c[:, None] * resp[2], t_dim),
        "phi_time_num": _scatter(v, c[:, None] * resp[2], v_dim),
        "influence_num": _scatter(u, c[:, None] * r, n),
    }
    return stats, float(np.sum(c * np.log(prob)))


def social_mstep(stats, triples, shape, smoothing):
    """TTCAM's topic updates; the influence vector is each user's branch
    share of their rating mass (a user without ratings keeps a zero row)."""
    u, _, _, c = triples
    mass = _scatter(u, c, shape[0])
    influence = np.clip(stats["influence_num"] / np.where(mass <= 0, 1.0, mass)[:, None], 0, 1)
    return {
        "theta": _normalize(stats["theta_num"], smoothing),
        "phi": _normalize(stats["phi_num"].T, smoothing),
        "theta_time": _normalize(stats["theta_time_num"], smoothing),
        "phi_time": _normalize(stats["phi_time_num"].T, smoothing),
        "influence": influence / (influence.sum(axis=1, keepdims=True) + EPS),
    }


# -- fold-in (Section 6's online updating) -------------------------------------


def fold_in(triples, shape, state, free, iterations):
    """Partial EM: only the ``free`` side re-estimated, from its own branch of Eq. 4.

    ``free`` is ``"theta"`` (θ and λ of every user, weighted by P(s=1)) or
    ``"theta_time"`` (θ′ of every interval, weighted by P(s=0) =
    ``(1−λ)·P_ctx / prob``); φ, φ′ and the other side keep their values in
    ``state``. A free row is renormalised when its count total is positive
    and kept when the total is 0.
    """
    u, t, v, c = triples
    n, t_dim, _ = shape
    for _ in range(iterations):
        joint_z = state["theta"][u] * state["phi"][:, v].T
        joint_x = state["theta_time"][t] * state["phi_time"][:, v].T
        p_interest, p_context = joint_z.sum(axis=1), joint_x.sum(axis=1)
        lam_r = state["lambda_u"][u]
        ps1, prob = _mixture_posterior(lam_r, p_interest, p_context)
        if free == "theta":
            counts = _scatter(u, c[:, None] * joint_z / (p_interest + EPS)[:, None] * ps1[:, None], n)
        else:
            ps0 = (1 - lam_r) * p_context / prob
            counts = _scatter(t, c[:, None] * joint_x / (p_context + EPS)[:, None] * ps0[:, None], t_dim)
        total = counts.sum(axis=1, keepdims=True)
        state = dict(state)
        state[free] = np.where(total > 0, counts / np.where(total > 0, total, 1.0), state[free])
        if free == "theta":
            state["lambda_u"] = _user_lambda(_scatter(u, c * ps1, n), triples, n)
    return state


# -- the loop -----------------------------------------------------------------


def seeded_init(seed, sizes, lambda_users=None):
    """The models' documented initialisation: one ``0.5 + U(0,1)`` draw per
    ``name: (rows, cols)`` of ``sizes`` in order, rows normalised; λ = 0.5."""
    rng = np.random.default_rng(seed)
    state = {}
    for name, (rows, cols) in sizes.items():
        matrix = 0.5 + rng.random((rows, cols))
        state[name] = matrix / matrix.sum(axis=1, keepdims=True)
    if lambda_users is not None:
        state["lambda_u"] = np.full(lambda_users, 0.5)
    return state


def run_reference_em(state, estep, mstep, max_iter=50, tol=1e-5):
    """Textbook EM: stop when the relative likelihood gain drops below
    ``tol``, keeping the state the last likelihood was evaluated on."""
    trace = []
    for _ in range(max_iter):
        stats, log_likelihood = estep(state)
        previous = trace[-1] if trace else None
        trace.append(log_likelihood)
        if previous is not None and (log_likelihood - previous) / max(abs(previous), EPS) < tol:
            break
        state = mstep(stats)
    return state, trace
