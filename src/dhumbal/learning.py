"""Reinforcement-learning layer: state encoding, action discretization,
rewards, a one-round episode environment, and DQN/PPO agents with
training loops.

State vectors are 117-dimensional: own-hand bitmap [0..51], discard-pile
bitmap [52..103], seat-parity one-hot [104..105], six normalized scalars
[106..111] (hand value /65, turn /100, mean opponent hand size /5, coins
/1e4, pile size /52, round index /1024), phase one-hot [112..114], two
padding zeros.

Actions are discretized to 128 indices:

    0 declare, 1 decline,
    2..53   discard one card (2 + suit*13 + rank-1),
    54..66  discard every held card of a rank (54 + rank-1),
    67..110 discard the longest run from (suit, start) (67 + suit*11 + start-1),
    111 pick stock, 112 pick discard top, 113..127 reserved (never legal).

The table names a subset of ``engine.legal_actions``: full-rank sets only,
and runs only up to the longest from their start. ``action_table`` builds
it over the engine's list, so the mask is never wider than the legal set
and legality is worked out in the engine alone; ``RoundEnv.step`` and
``RLAgent`` look the chosen index up in it.

The encoding, the table and the mask work on card codes through tables
built once from ``card_index`` (a card's bitmap slots, its single's index,
the index of the run that starts at it); the card-level versions they must
equal byte for byte are references in ``tests/test_learning.py``.

Rewards: +1.0 per valid discard or pick, -10.0 for an invalid action
(the environment then substitutes a uniformly random legal action), and
the player's settlement coin delta when the round ends. ``RoundEnv`` is
``arena.play_round`` with the learner's seat played from outside, and
``checkpoint_select`` validates with ``arena.run_round``: one turn loop.

A checkpoint is one JSON file: ``format_version``
(``neuralnet.FORMAT_VERSION``), ``kind``, ``episode`` and the kind's
``neuralnet`` net documents, ``net`` for DQN or ``actor`` and ``critic``
for PPO. ``load_learning_checkpoint`` refuses a file of another version,
saying to retrain, as it refuses a malformed one, with CheckpointError.
"""

from __future__ import annotations

import json
import random
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

from . import analytics, arena, neuralnet as nn
from .engine import (
    FULL_DECK,
    Action,
    Card,
    JhyapAction,
    Observation,
    PickSource,
    card_index,
    legal_actions,
    observation_for,
    _DECLARE,
    _RANK_OF,
    _SET,
    _SINGLE,
    _STOCK,
    _SUIT_OF,
)
from .heuristics import PROFILES, HeuristicAgent
from .neuralnet import np  # numpy, loaded on first use

STATE_DIM = 117
NUM_ACTIONS = 128

ACTION_DECLARE = 0
ACTION_DECLINE = 1
ACTION_SINGLE_BASE = 2  # ..53
ACTION_RANK_SET_BASE = 54  # ..66
ACTION_RUN_BASE = 67  # ..110, suit*11 + start-1, start in 1..11
ACTION_PICK_STOCK = 111
ACTION_PICK_TOP = 112

REWARD_VALID = 1.0
REWARD_INVALID = -10.0


# Per-card-code tables, built once from ``card_index``: a card's slot in
# the hand bitmap and in the pile bitmap, the index of its single discard
# and the index of the run that starts at it.
_HAND_SLOT: tuple[int, ...] = tuple(map(card_index, sorted(FULL_DECK)))
_PILE_SLOT: tuple[int, ...] = tuple(52 + slot for slot in _HAND_SLOT)
_SINGLE_INDEX: tuple[int, ...] = tuple(ACTION_SINGLE_BASE + slot for slot in _HAND_SLOT)
_RUN_INDEX: tuple[int, ...] = tuple(
    ACTION_RUN_BASE + suit * 11 + rank - 1 for rank, suit in zip(_RANK_OF, _SUIT_OF)
)


def encode_state(observation: Observation) -> np.ndarray:
    """117-entry feature vector; scalars clamped to [0, 1.5]."""
    hand = observation.own_hand
    pile = [code for group in observation.discard_pile_groups for code in group.cards]
    vec = np.zeros(STATE_DIM)
    # one write per slot: for the 15 or so slots of an observation this is
    # faster than one assignment through a list of indices
    for code in hand:
        vec[_HAND_SLOT[code]] = 1.0
    for code in pile:
        vec[_PILE_SLOT[code]] = 1.0
    vec[104 + observation.seat % 2] = 1.0
    vec[112 + observation.phase] = 1.0
    sizes = observation.opponent_hand_sizes
    scalars = (
        observation.hand_value / 65.0,
        observation.turn_count / 100.0,
        (sum(sizes) / len(sizes)) / 5.0 if sizes else 0.0,
        observation.own_coins / 10_000.0,
        len(pile) / 52.0,
        observation.round_index / 1024.0,
    )
    # np.clip's values, without its cost per call
    vec[106:112] = [min(max(x, 0.0), 1.5) for x in scalars]
    return vec


def action_index(action: Action, hand: Sequence[Card]) -> Optional[int]:
    """The index that names a legal action of ``hand``, or None for the
    groups the table leaves out: a set that leaves a card of its rank in
    the hand, and a run that stops short of the longest run from its
    first card."""
    cls = action.__class__
    if cls is JhyapAction:
        return ACTION_DECLARE if action is _DECLARE else ACTION_DECLINE
    if cls is PickSource:
        return ACTION_PICK_STOCK if action is _STOCK else ACTION_PICK_TOP
    kind, cards = action
    first = cards[0]
    if kind is _SINGLE:
        return _SINGLE_INDEX[first]
    if kind is _SET:
        lowest = first - _SUIT_OF[first]  # the clubs card of its rank
        held = sum(code in hand for code in range(lowest, lowest + 4))
        return ACTION_RANK_SET_BASE + _RANK_OF[first] - 1 if held == len(cards) else None
    after = cards[-1] + 4  # the next rank, same suit
    if after < 52 and after in hand:
        return None
    return _RUN_INDEX[first]


def action_table(observation: Observation) -> dict[int, Action]:
    """Index -> engine action over ``engine.legal_actions(observation)``:
    the legal moves the 128-way table names, and only those."""
    hand = observation.own_hand
    table = {}
    for action in legal_actions(observation):
        index = action_index(action, hand)
        if index is not None:
            table[index] = action
    return table


def _mask(indices) -> np.ndarray:
    mask = np.zeros(NUM_ACTIONS, dtype=bool)
    for index in indices:
        mask[index] = True
    return mask


def legal_action_mask(observation: Observation) -> np.ndarray:
    """Boolean mask over all 128 indices: the keys of ``action_table``."""
    return _mask(action_table(observation))


# --- replay machinery ----------------------------------------------------

class ReplayBuffer:
    """FIFO ring of transitions in preallocated row arrays, capacity 2000
    by default. Once the ring is full, each push overwrites the oldest
    row, and the oldest transition sits at the row the next push writes."""

    def __init__(self, capacity: int = 2000):
        # rows are read only once written, so the arrays start uninitialised
        # and only the pages of written rows are ever touched
        self.capacity = capacity
        self.states = np.empty((capacity, STATE_DIM))
        self.actions = np.empty(capacity, dtype=np.intp)
        self.rewards = np.empty(capacity)
        self.next_states = np.empty((capacity, STATE_DIM))
        self.dones = np.empty(capacity)  # 1.0 where the round ended
        self.next_masks = np.empty((capacity, NUM_ACTIONS), dtype=bool)  # for target maxes
        self.size = 0
        self.next_row = 0

    def push(self, state, action: int, reward: float, next_state, done: bool, next_mask) -> None:
        row = self.next_row
        self.states[row] = state
        self.actions[row] = action
        self.rewards[row] = reward
        self.next_states[row] = next_state
        self.dones[row] = done
        self.next_masks[row] = next_mask
        self.next_row = (row + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: random.Random):
        """(states, actions, rewards, next_states, dones, next_masks) of
        ``batch_size`` transitions drawn without replacement, in the order
        that ``rng.sample`` draws them from the transitions oldest first."""
        rows = np.array(rng.sample(range(self.size), batch_size))
        if self.size == self.capacity:
            rows += self.next_row
            rows %= self.capacity
        return (self.states[rows], self.actions[rows], self.rewards[rows],
                self.next_states[rows], self.dones[rows], self.next_masks[rows])

    def __len__(self) -> int:
        return self.size


@dataclass
class TrajectoryBatch:
    states: np.ndarray  # [T, 117]
    actions: np.ndarray  # [T]
    rewards: np.ndarray  # [T]
    dones: np.ndarray  # [T]
    masks: np.ndarray  # [T, 128] bool
    values: np.ndarray  # [T]
    log_probs: np.ndarray  # [T]
    advantages: Optional[np.ndarray] = None  # normalized
    returns: Optional[np.ndarray] = None


@dataclass
class DQNConfig:
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_min: float = 0.01
    epsilon_decay: float = 0.995  # multiplicative, per episode
    target_sync_every: int = 100  # train steps
    lr: float = 1e-4
    batch_size: int = 32
    replay_capacity: int = 2000
    hidden: tuple[int, int] = (128, 64)


@dataclass
class PPOConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    epochs: int = 5
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    lr: float = 1e-4
    batch_size: int = 16
    hidden: tuple[int, int] = (128, 64)


# --- DQN ------------------------------------------------------------------

def dqn_select(
    net: nn.DenseNet,
    state: np.ndarray,
    epsilon: float,
    mask: np.ndarray,
    rng: random.Random,
) -> int:
    """Epsilon-greedy over legal indices only."""
    legal = np.flatnonzero(mask)
    if len(legal) == 0:
        raise ValueError("no legal actions to select from")
    if rng.random() < epsilon:
        return int(legal[rng.randrange(len(legal))])
    q = nn.forward(net, state)
    return int(legal[int(np.argmax(q[legal]))])


class DQNAgentCore:
    """Online/target Q-networks plus optimizer and sync counter."""

    def __init__(self, cfg: DQNConfig, seed: int):
        self.cfg = cfg
        init_rng = np.random.default_rng(seed)
        dims = (STATE_DIM, *cfg.hidden, NUM_ACTIONS)
        self.net = nn.init_net(dims, ("relu", "relu", "linear"), init_rng)
        self.target_net = self.net.copy()
        self.optimizer = nn.adam_init(self.net, lr=cfg.lr)
        self.train_steps = 0

    def train_step(self, buffer: ReplayBuffer, rng: random.Random) -> Optional[float]:
        """One sampled TD update; returns the batch MSE or None if starved."""
        cfg = self.cfg
        if len(buffer) < cfg.batch_size:
            return None
        rows = np.arange(cfg.batch_size)
        states, actions, rewards, next_states, dones, next_masks = buffer.sample(
            cfg.batch_size, rng)

        next_q = nn.forward(self.target_net, next_states)
        next_q = np.where(next_masks, next_q, -np.inf)
        best_next = np.max(next_q, axis=1)
        best_next = np.where(np.isfinite(best_next), best_next, 0.0)
        targets = rewards + cfg.gamma * (1.0 - dones) * best_next

        q, cache = nn.forward_cache(self.net, states)
        chosen = q[rows, actions]
        errors = chosen - targets
        loss = float(np.mean(errors**2))
        grad_out = np.zeros_like(q)
        grad_out[rows, actions] = 2.0 * errors / cfg.batch_size
        nn.backward(self.net, cache, grad_out)
        nn.adam_step(self.net, self.optimizer)
        self.train_steps += 1
        if self.train_steps % cfg.target_sync_every == 0:
            self.target_net.parameters[:] = self.net.parameters
        return loss


# --- PPO ------------------------------------------------------------------

def masked_policy(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over legal logits; illegal entries get exactly zero mass."""
    return nn.softmax(np.where(mask, logits, -np.inf))


def policy_entropy(probs: np.ndarray) -> np.ndarray:
    safe = np.where(probs > 0.0, probs, 1.0)
    return -np.sum(probs * np.log(safe), axis=-1)


def gae(
    rewards: Sequence[float],
    values: Sequence[float],
    dones: Sequence[bool],
    gamma: float,
    lam: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates from one backward pass: the returns
    ``A_t + v_t`` (the critic's targets) and the batch-normalized ``A_t``.

    delta_t = r_t + gamma * v_{t+1} * (1 - done_t) - v_t
    A_t = delta_t + gamma * lam * (1 - done_t) * A_{t+1}
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    continues = 1.0 - np.asarray(dones, dtype=float)
    horizon = len(rewards)
    if horizon == 0:
        return np.zeros(0), np.zeros(0)
    advantages = np.zeros(horizon)
    running = 0.0
    for t in range(horizon - 1, -1, -1):
        next_value = values[t + 1] if t + 1 < horizon else 0.0
        delta = rewards[t] + gamma * next_value * continues[t] - values[t]
        running = delta + gamma * lam * continues[t] * running
        advantages[t] = running
    std = float(np.std(advantages))
    return advantages + values, (advantages - advantages.mean()) / max(std, 1e-8)


def _actor_grad_logits(
    probs: np.ndarray,
    actions: np.ndarray,
    advantages: np.ndarray,
    ratios: np.ndarray,
    clip_ratio: float,
    entropy_coef: float,
) -> np.ndarray:
    """d(total loss)/d(logits) for the clipped surrogate + entropy bonus.

    Samples where the clipped branch is active and saturated contribute no
    policy gradient (the standard PPO dead zone).
    """
    batch = len(actions)
    clipped = np.clip(ratios, 1.0 - clip_ratio, 1.0 + clip_ratio)
    unclipped_active = ratios * advantages <= clipped * advantages + 1e-18
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), actions] = 1.0
    dlogp = onehot - probs
    policy_grad = -(
        (unclipped_active * ratios * advantages)[:, None] * dlogp
    )
    if entropy_coef:
        logp = np.where(probs > 0.0, np.log(np.where(probs > 0.0, probs, 1.0)), 0.0)
        entropy = -np.sum(probs * logp, axis=-1, keepdims=True)
        dentropy = np.where(probs > 0.0, -probs * (logp + entropy), 0.0)
        policy_grad -= entropy_coef * dentropy
    return policy_grad / batch


class PPOAgentCore:
    """Actor (softmax policy head) and critic with their optimizers.

    The actor net ends in a linear layer; the masked softmax lives in the
    agent so illegal logits can be dropped before normalization, which is
    architecturally the paper head with the mask folded in.
    """

    def __init__(self, cfg: PPOConfig, seed: int):
        self.cfg = cfg
        init_rng = np.random.default_rng(seed)
        dims = (STATE_DIM, *cfg.hidden, NUM_ACTIONS)
        self.actor = nn.init_net(dims, ("relu", "relu", "linear"), init_rng)
        self.critic = nn.init_net(
            (STATE_DIM, *cfg.hidden, 1), ("relu", "relu", "linear"), init_rng
        )
        self.actor_opt = nn.adam_init(self.actor, lr=cfg.lr)
        self.critic_opt = nn.adam_init(self.critic, lr=cfg.lr)

    def policy(self, state: np.ndarray, mask: np.ndarray) -> np.ndarray:
        return masked_policy(nn.forward(self.actor, state), mask)

    def value(self, state: np.ndarray) -> float:
        return float(nn.forward(self.critic, state)[0])

    def sample_action(
        self, state: np.ndarray, mask: np.ndarray, rng: random.Random
    ) -> tuple[int, float]:
        """Draw from the masked policy; returns (index, log prob)."""
        probs = self.policy(state, mask)
        draw = rng.random()
        cumulative = 0.0
        chosen = int(np.flatnonzero(mask)[-1])
        for index in np.flatnonzero(mask):
            cumulative += probs[index]
            if draw < cumulative:
                chosen = int(index)
                break
        return chosen, float(np.log(probs[chosen]))


def ppo_update(
    core: PPOAgentCore, batch: TrajectoryBatch, rng: random.Random
) -> tuple[float, float, float]:
    """Clipped-surrogate epochs over shuffled minibatches.

    Returns mean (policy objective, value MSE, entropy) across updates.
    """
    cfg = core.cfg
    horizon = len(batch.actions)
    assert batch.advantages is not None and batch.returns is not None
    policy_losses, value_losses, entropies = [], [], []
    order = list(range(horizon))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, horizon, cfg.batch_size):
            rows = np.array(order[start : start + cfg.batch_size])
            states = batch.states[rows]
            actions = batch.actions[rows]
            masks = batch.masks[rows]
            advantages = batch.advantages[rows]
            returns = batch.returns[rows]
            old_log_probs = batch.log_probs[rows]

            logits, actor_cache = nn.forward_cache(core.actor, states)
            probs = masked_policy(logits, masks)
            new_log_probs = np.log(probs[np.arange(len(rows)), actions])
            ratios = np.exp(new_log_probs - old_log_probs)
            clipped = np.clip(ratios, 1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio)
            surrogate = float(
                np.mean(np.minimum(ratios * advantages, clipped * advantages))
            )
            entropy = float(np.mean(policy_entropy(probs)))

            grad_logits = _actor_grad_logits(
                probs, actions, advantages, ratios, cfg.clip_ratio, cfg.entropy_coef
            )
            nn.backward(core.actor, actor_cache, grad_logits)
            nn.adam_step(core.actor, core.actor_opt)

            values, critic_cache = nn.forward_cache(core.critic, states)
            errors = values[:, 0] - returns
            value_loss = float(np.mean(errors**2))
            grad_values = (cfg.value_coef * 2.0 * errors / len(rows))[:, None]
            nn.backward(core.critic, critic_cache, grad_values)
            nn.adam_step(core.critic, core.critic_opt)

            policy_losses.append(surrogate)
            value_losses.append(value_loss)
            entropies.append(entropy)
    return (
        float(np.mean(policy_losses)),
        float(np.mean(value_losses)),
        float(np.mean(entropies)),
    )


# --- environment ----------------------------------------------------------

class RoundEnv:
    """One round of Dhumbal as an episodic environment for a learner at
    seat 0, with ``opponents`` at seats 1, 2, ... in order.

    The round is ``arena.play_round`` with the learner's seat played from
    outside: the opponents play between the learner's moves, and every
    learner move, forced declines included, is one step. Seat 0 has the
    first turn, so ``reset`` always leaves the learner at a live Jhyap
    check, and a round's settlement lands on a ``step``, after which
    ``record`` holds the round's ``arena.RoundRecord``.
    """

    def __init__(self, opponents, rng: random.Random):
        self.opponents = list(opponents)
        self.num_players = len(self.opponents) + 1
        if not 2 <= self.num_players <= 5:
            raise ValueError("need 1..4 opponents")
        self.rng = rng
        self.state = None
        self.record: Optional[arena.RoundRecord] = None
        self._round = None
        self._table: dict[int, Action] = {}

    def reset(self) -> tuple[np.ndarray, np.ndarray, Observation]:
        self._round = arena.play_round(
            [None, *self.opponents], range(self.num_players), self.rng)
        self.record = None
        self.state = next(self._round)
        return self._observe_learner()

    def _observe_learner(self) -> tuple[np.ndarray, np.ndarray, Observation]:
        """The learner's observation, its encoding and its mask. The action
        table stays for the next ``step``; it is empty once the round ends."""
        obs = observation_for(self.state, 0)
        self._table = action_table(obs) if self.record is None else {}
        return encode_state(obs), _mask(self._table), obs

    def step(self, action_index: int):
        """Apply one learner decision.

        Returns (next_state, next_mask, reward, done, info). Invalid
        indices cost -10 and a random legal action is played instead;
        ``info["invalid"]`` says which.
        """
        assert self.state is not None and self.record is None, "env needs reset"
        table = self._table
        action = table.get(action_index)
        invalid = action is None
        if invalid:
            indices = sorted(table)
            action = table[indices[self.rng.randrange(len(indices))]]
            step_reward = REWARD_INVALID
        else:
            step_reward = 0.0 if isinstance(action, JhyapAction) else REWARD_VALID

        try:
            self.state = self._round.send(action)
        except StopIteration as end:
            self.record = end.value
            step_reward += float(self.record.coin_delta[0])
        next_vec, next_mask, _ = self._observe_learner()
        return next_vec, next_mask, step_reward, self.record is not None, {"invalid": invalid}


# --- training -------------------------------------------------------------

@dataclass
class EpisodeStats:
    episode: int
    reward: float
    win: bool
    length: int
    loss: float


@dataclass
class TrainResult:
    kind: str
    curve: list[EpisodeStats]
    checkpoint_paths: list[Path]
    converged_at: Optional[int]
    core: object  # DQNAgentCore | PPOAgentCore


# per-algorithm win-rate thresholds, and the episodes in each of the two
# windows that ``train`` compares
CONVERGENCE_THRESHOLDS = {"dqn": 0.05, "ppo": 0.02}
CONVERGENCE_WINDOW = 500


def convergence_check(
    win_rates: Sequence[float], window: int = CONVERGENCE_WINDOW, threshold: float = 0.05
) -> bool:
    """True when the last two windows' mean win rates differ by < threshold."""
    if len(win_rates) < 2 * window:
        return False
    recent = float(np.mean(win_rates[-window:]))
    previous = float(np.mean(win_rates[-2 * window : -window]))
    return abs(recent - previous) < threshold


def default_opponents():
    return [HeuristicAgent(name) for name in PROFILES]


def save_learning_checkpoint(kind: str, core, path: Path, episode: int) -> None:
    """Write ``core``'s nets (DQN's ``net``, or PPO's ``actor`` and
    ``critic``) as ``neuralnet`` net documents in one JSON file."""
    doc: dict = {"format_version": nn.FORMAT_VERSION, "kind": kind, "episode": episode}
    if kind == "dqn":
        doc["net"] = nn.net_to_doc(core.net)
    else:
        doc["actor"] = nn.net_to_doc(core.actor)
        doc["critic"] = nn.net_to_doc(core.critic)
    Path(path).write_text(json.dumps(doc))


def load_learning_checkpoint(path: Path):
    """Returns (kind, nets dict) from a training checkpoint file; raises
    CheckpointError on a file of another format version, a malformed one
    or one with a non-finite parameter."""
    try:
        doc = json.loads(Path(path).read_text())
        version = doc["format_version"]
        if version != nn.FORMAT_VERSION:
            raise nn.CheckpointError(
                f"format_version {version!r}, but this version of dhumbal reads only "
                f"{nn.FORMAT_VERSION}; retrain it with `dhumbal train`")
        kind = doc["kind"]
        if kind == "dqn":
            nets = {"net": nn.net_from_doc(doc["net"])}
        elif kind == "ppo":
            nets = {
                "actor": nn.net_from_doc(doc["actor"]),
                "critic": nn.net_from_doc(doc["critic"]),
            }
        else:
            raise nn.CheckpointError(f"unknown checkpoint kind {kind!r}")
        return kind, nets
    except nn.CheckpointError as exc:
        raise nn.CheckpointError(f"checkpoint {path}: {exc}") from None
    except (KeyError, TypeError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise nn.CheckpointError(f"malformed learning checkpoint {path}: {exc!r}") from exc


def train(
    kind: str,
    opponents=None,
    episodes: int = 200,
    seed: int = 42,
    *,
    checkpoint_every: Optional[int] = None,
    out_dir: Optional[Path] = None,
) -> TrainResult:
    """Train a DQN or PPO learner over one-round episodes.

    Writes periodic checkpoints and a per-episode curve CSV when given an
    output directory; stops early once the win-rate change between the last
    two ``CONVERGENCE_WINDOW``-episode windows falls under the per-algorithm
    threshold.
    """
    if kind not in ("dqn", "ppo"):
        raise ValueError(f"unknown learner kind {kind!r}")
    opponents = default_opponents() if opponents is None else list(opponents)
    rng = random.Random(seed)
    env = RoundEnv(opponents, rng)
    threshold = CONVERGENCE_THRESHOLDS[kind]
    curve: list[EpisodeStats] = []
    checkpoint_paths: list[Path] = []
    converged_at: Optional[int] = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    if kind == "dqn":
        core = DQNAgentCore(DQNConfig(), seed=rng.randrange(2**63))
        buffer = ReplayBuffer(core.cfg.replay_capacity)
        epsilon = core.cfg.epsilon_start
    else:
        core = PPOAgentCore(PPOConfig(), seed=rng.randrange(2**63))

    wins: list[float] = []
    for episode in range(1, episodes + 1):
        state_vec, mask, _ = env.reset()
        done = False
        total_reward = 0.0
        losses: list[float] = []
        if kind == "dqn":
            while not done:
                action = dqn_select(core.net, state_vec, epsilon, mask, rng)
                next_vec, next_mask, step_reward, done, _ = env.step(action)
                buffer.push(state_vec, action, step_reward, next_vec, done, next_mask)
                loss = core.train_step(buffer, rng)
                if loss is not None:
                    losses.append(loss)
                total_reward += step_reward
                state_vec, mask = next_vec, next_mask
            epsilon = max(core.cfg.epsilon_min, epsilon * core.cfg.epsilon_decay)
        else:
            steps: list[tuple] = []
            while not done:
                action, log_prob = core.sample_action(state_vec, mask, rng)
                value = core.value(state_vec)
                next_vec, next_mask, step_reward, done, _ = env.step(action)
                steps.append((state_vec, mask, action, step_reward, done, value, log_prob))
                total_reward += step_reward
                state_vec, mask = next_vec, next_mask
            batch = TrajectoryBatch(
                states=np.stack([s[0] for s in steps]),
                masks=np.stack([s[1] for s in steps]),
                actions=np.array([s[2] for s in steps]),
                rewards=np.array([s[3] for s in steps]),
                dones=np.array([s[4] for s in steps], dtype=bool),
                values=np.array([s[5] for s in steps]),
                log_probs=np.array([s[6] for s in steps]),
            )
            batch.returns, batch.advantages = gae(
                batch.rewards,
                batch.values,
                batch.dones,
                core.cfg.gamma,
                core.cfg.gae_lambda,
            )
            policy_loss, value_loss, entropy = ppo_update(core, batch, rng)
            losses.append(
                -policy_loss
                + core.cfg.value_coef * value_loss
                - core.cfg.entropy_coef * entropy
            )

        win = env.record.winner_agent == 0
        wins.append(1.0 if win else 0.0)
        curve.append(
            EpisodeStats(
                episode=episode,
                reward=total_reward,
                win=win,
                length=env.record.turns,
                loss=float(np.mean(losses)) if losses else 0.0,
            )
        )
        converged = convergence_check(wins, CONVERGENCE_WINDOW, threshold)
        if out_dir is not None and (
            converged
            or episode == episodes
            or checkpoint_every and episode % checkpoint_every == 0
        ):
            # the last episode, converged or not, is saved once
            path = out_dir / f"{kind}_ep{episode:06d}.json"
            save_learning_checkpoint(kind, core, path, episode)
            checkpoint_paths.append(path)
        if converged:
            converged_at = episode
            break

    if out_dir is not None:
        write_curve_csv(out_dir / f"{kind}_curve.csv", curve)
    return TrainResult(kind, curve, checkpoint_paths, converged_at, core)


def write_curve_csv(path: Path, curve: Sequence[EpisodeStats]) -> None:
    header = [f.name for f in fields(EpisodeStats)]
    analytics.write_csv(path, header, map(astuple, curve))


def checkpoint_select(
    checkpoint_paths: Sequence[Path],
    validation_opponents=None,
    rounds: int = 64,
    seed: int = 42,
) -> Path:
    """Pick the checkpoint whose greedy agent wins the most of ``rounds``
    validation rounds (ties: the later), each checkpoint's rounds played by
    ``arena.run_round`` at seat 0 from a fresh ``random.Random(seed)``."""
    if not checkpoint_paths:
        raise ValueError("need at least one checkpoint")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    best_path = None
    best_wins = -1
    for path in checkpoint_paths:
        opponents = (
            default_opponents() if validation_opponents is None else validation_opponents
        )
        agents = [RLAgent.from_checkpoint(path), *opponents]
        rng = random.Random(seed)
        wins = sum(arena.run_round(agents, range(len(agents)), rng).winner_agent == 0
                   for _ in range(rounds))
        if wins >= best_wins:  # later checkpoints win ties
            best_wins = wins
            best_path = path
    return best_path


class RLAgent:
    """Arena adapter: plays greedily from trained networks."""

    def __init__(self, kind: str, nets: dict):
        if kind not in ("dqn", "ppo"):
            raise ValueError(f"unknown learner kind {kind!r}")
        self.kind = kind
        self.nets = nets

    @classmethod
    def from_checkpoint(cls, path: Path) -> "RLAgent":
        return cls(*load_learning_checkpoint(path))

    def greedy_index(self, state_vec: np.ndarray, mask: np.ndarray) -> int:
        legal = np.flatnonzero(mask)
        if self.kind == "dqn":
            scores = nn.forward(self.nets["net"], state_vec)
        else:
            scores = masked_policy(nn.forward(self.nets["actor"], state_vec), mask)
        return int(legal[int(np.argmax(scores[legal]))])

    def act(self, observation: Observation, rng: random.Random) -> Action:
        table = action_table(observation)
        return table[self.greedy_index(encode_state(observation), _mask(table))]
