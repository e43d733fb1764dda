"""Unit tests for repro.decoding: grammar FSM, constraints, MCTS.

The contracts under test (``docs/DECODING.md``):

* the grammar mask only admits tokens whose successor state can still
  close the recipe within the remaining budget — a tight budget forces
  the shortest closing path and the output always parses;
* constraint parsing/validation fails with *named* error prefixes
  (``unknown_diet`` / ``conflicting_constraints`` / ...), which the
  backend surfaces as HTTP 400s;
* :class:`PhraseBlocker` bans canonical tokenizations *and* merged
  vocabulary pieces whose surface mentions a banned word;
* seeded MCTS is deterministic, prefers constraint-satisfying rollouts
  over higher-reward violating ones, and degrades — never raises — on
  a reward failure;
* with ``constraints`` absent, the request path is bit-identical to
  the plain engine (the constrained-off regression).
"""

import numpy as np
import pytest

from repro.core import PipelineConfig, Ratatouille
from repro.models import GenerationConfig, distilgpt2, generate
from repro.obs import MetricsRegistry, NullRegistry, NullTracer
from repro.preprocess import preprocess
from repro.preprocess.formatting import (INSTR_END, NEXT_INSTR, RECIPE_END,
                                         TITLE_END, TITLE_START, parse_recipe)
from repro.recipedb import default_catalog, generate_corpus
from repro.serving import InferenceEngine
from repro.tokenizers import BPETokenizer, WordTokenizer
from repro.training import TrainingConfig
from repro.decoding import (Constraints, GrammarMask, MCTSDecoder, MIN_BUDGET,
                            PhraseBlocker, RecipeGrammar, RecipeReward,
                            apply_constraints_to_prompt, estimate_calories,
                            parse_constraints, run_constrained_generation,
                            violations)
from repro.decoding.constraints import _surface_banned_ids
from repro.decoding.grammar import CLOSE_COST, S_INSTR_EMPTY
from repro.decoding.reward import RewardBreakdown
from repro.webapp.service import _admission_cost, _parse_generation_request


@pytest.fixture(scope="module")
def texts():
    corpus, _ = preprocess(generate_corpus(40, seed=13))
    return corpus


@pytest.fixture(scope="module")
def tokenizer(texts):
    return WordTokenizer(texts)


@pytest.fixture(scope="module")
def grammar(tokenizer):
    return RecipeGrammar(tokenizer)


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


@pytest.fixture(scope="module")
def pipeline():
    config = PipelineConfig(
        model_name="distilgpt2",
        training=TrainingConfig(max_steps=5, batch_size=4,
                                eval_every=10**9))
    return Ratatouille.quickstart(model_name="distilgpt2", num_recipes=30,
                                  seed=0, config=config)


def _tag(grammar, name):
    return grammar.tag_ids[name]


class TestGrammar:
    def test_start_state_allows_only_content(self, grammar):
        mask = GrammarMask(grammar, max_new_tokens=64)
        allowed = set(mask.allowed_ids([]).tolist())
        assert allowed == set(grammar.content_ids.tolist())

    def test_tag_walk_follows_the_format(self, grammar):
        mask = GrammarMask(grammar, max_new_tokens=64)
        content = int(grammar.content_ids[0])
        history = [content, _tag(grammar, INSTR_END)]
        assert set(mask.allowed_ids(history).tolist()) == {
            _tag(grammar, TITLE_START)}
        history += [_tag(grammar, TITLE_START), content,
                    _tag(grammar, TITLE_END)]
        assert set(mask.allowed_ids(history).tolist()) == {
            _tag(grammar, RECIPE_END)}
        history.append(_tag(grammar, RECIPE_END))
        assert set(mask.allowed_ids(history).tolist()) == {grammar.eos_id}

    def test_tight_budget_forces_the_closing_path(self, grammar, tokenizer):
        # At exactly MIN_BUDGET the only legal walk is the shortest
        # close: content, <INSTR_END>, <TITLE_START>, content,
        # <TITLE_END>, <RECIPE_END>, <EOS> — and it parses.
        mask = GrammarMask(grammar, max_new_tokens=MIN_BUDGET)
        history = []
        rng = np.random.default_rng(0)
        for _ in range(MIN_BUDGET):
            allowed = mask.allowed_ids(history)
            assert allowed.size >= 1  # never a dead end
            history.append(int(rng.choice(allowed)))
        assert history[1] == _tag(grammar, INSTR_END)
        assert history[2] == _tag(grammar, TITLE_START)
        assert history[-2] == _tag(grammar, RECIPE_END)
        assert history[-1] == tokenizer.eos_id

    def test_budget_below_close_cost_is_rejected(self, grammar):
        with pytest.raises(ValueError, match="cannot close"):
            GrammarMask(grammar, max_new_tokens=MIN_BUDGET - 1)
        assert MIN_BUDGET == CLOSE_COST[S_INSTR_EMPTY]

    def test_shrunk_history_resets_the_automaton(self, grammar):
        mask = GrammarMask(grammar, max_new_tokens=64)
        content = int(grammar.content_ids[0])
        mask.allowed_ids([content, _tag(grammar, INSTR_END)])
        # Failover replay: a shorter history must replay from scratch,
        # not continue from the stale post-<INSTR_END> state.
        fresh = GrammarMask(grammar, max_new_tokens=64)
        assert (set(mask.allowed_ids([content]).tolist())
                == set(fresh.allowed_ids([content]).tolist()))

    def test_preamble_resumes_mid_recipe(self, grammar):
        preamble = [int(grammar.content_ids[0]), _tag(grammar, INSTR_END)]
        mask = GrammarMask(grammar, max_new_tokens=8, preamble=preamble)
        assert set(mask.allowed_ids([]).tolist()) == {
            _tag(grammar, TITLE_START)}

    def test_masked_greedy_decode_parses(self, grammar, tokenizer):
        # Argmax over masked pseudo-random logits, any budget: the
        # emitted text (appended to a prompt) always parses.
        rng = np.random.default_rng(7)
        mask = GrammarMask(grammar, max_new_tokens=24)
        history = []
        for _ in range(24):
            logits = rng.normal(size=tokenizer.vocab_size)
            masked = mask(logits, history)
            history.append(int(np.argmax(masked)))
            if history[-1] == tokenizer.eos_id:
                break
        text = ("<RECIPE_START> <INGR_START> onion <INGR_END> "
                "<INSTR_START> " + tokenizer.decode(history))
        parsed = parse_recipe(text)
        assert parsed.title
        assert parsed.instructions


class TestParseConstraints:
    def test_unknown_diet_is_named(self):
        with pytest.raises(ValueError, match="unknown_diet"):
            parse_constraints({"diet": "carnivore"})

    def test_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="unknown_constraint"):
            parse_constraints({"forbidden": ["x"]})

    def test_include_exclude_overlap_is_named(self):
        with pytest.raises(ValueError, match="conflicting_constraints"):
            parse_constraints({"include_ingredients": ["garlic"],
                               "exclude_ingredients": ["garlic"]})

    @pytest.mark.parametrize("calories", [0, -10, True, "many"])
    def test_bad_max_calories(self, calories):
        with pytest.raises(ValueError, match="unknown_constraint"):
            parse_constraints({"max_calories": calories})

    def test_name_list_cap(self):
        with pytest.raises(ValueError, match="unknown_constraint"):
            parse_constraints({"exclude_ingredients": ["x"] * 21})

    def test_diet_spelling_normalizes(self):
        assert parse_constraints({"diet": "Dairy-Free"}).diet == "dairy_free"

    def test_vegan_bans_meat_dairy_and_eggs(self, catalog):
        banned = parse_constraints({"diet": "vegan"}).banned_names(catalog)
        for name in ("chicken breast", "milk", "egg", "honey"):
            assert name in banned

    def test_exclusions_merge_with_diet(self, catalog):
        constraints = parse_constraints(
            {"diet": "vegetarian", "exclude_ingredients": ["cilantro"]})
        banned = constraints.banned_names(catalog)
        assert "cilantro" in banned
        assert "chicken breast" in banned


class TestPromptApplication:
    def test_includes_merge_into_the_prompt(self, catalog):
        constraints = parse_constraints({"include_ingredients": ["basil"]})
        merged = apply_constraints_to_prompt(["onion"], constraints, catalog)
        assert merged == ["onion", "basil"]

    def test_excluded_prompt_ingredient_is_named(self, catalog):
        constraints = parse_constraints({"exclude_ingredients": ["garlic"]})
        with pytest.raises(ValueError, match="conflicting_constraints"):
            apply_constraints_to_prompt(["2 clove garlic"], constraints,
                                        catalog)

    def test_diet_banned_prompt_ingredient_is_named(self, catalog):
        constraints = parse_constraints({"diet": "vegan"})
        with pytest.raises(ValueError, match="diet_conflict"):
            apply_constraints_to_prompt(["chicken breast"], constraints,
                                        catalog)

    def test_calorie_ceiling_is_named(self, catalog):
        constraints = parse_constraints({"max_calories": 1})
        with pytest.raises(ValueError, match="calories_exceeded"):
            apply_constraints_to_prompt(["500 g butter"], constraints,
                                        catalog)

    def test_calorie_estimate_is_deterministic(self, catalog):
        lines = ["2 cup flour", "1 tbsp olive oil", "chicken breast"]
        first = estimate_calories(lines, catalog)
        assert first > 0
        assert estimate_calories(lines, catalog) == first


class TestPhraseBlocker:
    def test_canonical_single_token_is_banned(self, tokenizer):
        blocker = PhraseBlocker(tokenizer, ["garlic"])
        garlic = tokenizer.encode("garlic")[0]
        logits = np.zeros(tokenizer.vocab_size)
        assert blocker(logits, [])[garlic] == -np.inf

    def test_multi_token_phrase_blocks_completion_only(self, tokenizer):
        ids = tokenizer.encode("olive oil")
        assert len(ids) == 2  # word tokenizer: one id per word
        blocker = PhraseBlocker(tokenizer, ["olive oil"])
        logits = np.zeros(tokenizer.vocab_size)
        # "oil" alone is fine...
        assert np.isfinite(blocker(logits, [])[ids[1]])
        # ...but not right after "olive".
        assert blocker(logits, [ids[0]])[ids[1]] == -np.inf

    def test_preamble_carries_the_phrase_prefix(self, tokenizer):
        ids = tokenizer.encode("olive oil")
        blocker = PhraseBlocker(tokenizer, ["olive oil"], preamble=[ids[0]])
        logits = np.zeros(tokenizer.vocab_size)
        assert blocker(logits, [])[ids[1]] == -np.inf

    def test_surface_scan_bans_merged_bpe_pieces(self, texts):
        # BPE merges produce vocabulary pieces like "garlic,</w>" whose
        # canonical encoding of "garlic" never covers them; the surface
        # scan must catch every piece that *mentions* the word.
        bpe = BPETokenizer(texts, num_merges=300)
        merged = bpe.token_to_id("onion,</w>")  # punctuation-merged piece
        assert merged != bpe.unk_id
        surface = _surface_banned_ids(bpe, ("onion",))
        assert merged in surface
        blocker = PhraseBlocker(bpe, ["onion"])
        logits = np.zeros(bpe.vocab_size)
        out = blocker(logits, [])
        for idx in surface:
            assert out[idx] == -np.inf

    def test_surface_scan_respects_word_boundaries(self, texts):
        # "boil" contains "oil" but not at a word boundary: banning
        # "oil" must not ban the cooking verb.
        bpe = BPETokenizer(texts, num_merges=300)
        boil = bpe.token_to_id("boil</w>")
        assert boil != bpe.unk_id
        assert boil not in _surface_banned_ids(bpe, ("oil",))

    def test_surface_scan_is_memoised(self, tokenizer):
        first = _surface_banned_ids(tokenizer, ("garlic", "onion"))
        assert _surface_banned_ids(tokenizer, ("garlic", "onion")) is first


class TestViolationsPredicate:
    def test_banned_mention_is_flagged(self, catalog):
        constraints = parse_constraints({"exclude_ingredients": ["garlic"]})
        problems = violations(constraints, "fry the garlic gently", catalog)
        assert problems == ["exclude:garlic"]

    def test_word_boundary_not_substring(self, catalog):
        constraints = parse_constraints({"exclude_ingredients": ["rice"]})
        assert violations(constraints, "a pinch of turmeric", catalog) == []

    def test_missing_include_is_flagged(self, catalog):
        constraints = parse_constraints({"include_ingredients": ["basil"]})
        assert violations(constraints, "boil the pasta", catalog) == [
            "include:basil"]

    def test_diet_violation_labelled_diet(self, catalog):
        constraints = parse_constraints({"diet": "vegan"})
        assert "diet:chicken breast" in violations(
            constraints, "add the chicken breast", catalog)


def _breakdown(total):
    return RewardBreakdown(total=total, components={"format": total})


class TestMCTSDecoder:
    def _stub_submit(self, table):
        def submit(prompt, config, processors, deadline_ms):
            return list(table[config.strategy])
        return submit

    def test_reward_failure_degrades_to_greedy(self):
        greedy_tokens = [5, 6, 7]

        def reward(_ids):
            raise RuntimeError("reward backend down")

        decoder = MCTSDecoder(
            submit=self._stub_submit({"greedy": greedy_tokens,
                                      "sample": [8, 9]}),
            build_processors=lambda preamble, budget: [],
            reward=reward)
        result = decoder.search([1, 2], GenerationConfig(
            max_new_tokens=MIN_BUDGET, strategy="mcts", mcts_rollouts=4))
        assert result.search_degraded is True
        assert result.tokens == greedy_tokens
        assert result.reward is None

    def test_satisfying_rollout_outranks_higher_reward_violator(self):
        # sample rollouts score higher but violate; the greedy rollout
        # satisfies — satisfaction must win.
        table = {"greedy": [1, 2, 3], "sample": [4, 5, 6]}
        decoder = MCTSDecoder(
            submit=self._stub_submit(table),
            build_processors=lambda preamble, budget: [],
            reward=lambda ids: _breakdown(
                0.9 if list(ids)[-3:] == table["sample"] else 0.4),
            satisfies=lambda ids: list(ids)[-3:] == table["greedy"])
        result = decoder.search([0], GenerationConfig(
            max_new_tokens=MIN_BUDGET, strategy="mcts", mcts_rollouts=3))
        assert result.tokens[-3:] == table["greedy"]
        assert result.rollouts == 3

    def test_best_reward_wins_when_all_satisfy(self):
        table = {"greedy": [1, 2, 3], "sample": [4, 5, 6]}
        decoder = MCTSDecoder(
            submit=self._stub_submit(table),
            build_processors=lambda preamble, budget: [],
            reward=lambda ids: _breakdown(
                0.9 if list(ids)[-3:] == table["sample"] else 0.4))
        result = decoder.search([0], GenerationConfig(
            max_new_tokens=MIN_BUDGET, strategy="mcts", mcts_rollouts=3))
        assert result.tokens[-3:] == table["sample"]
        assert result.reward.total == 0.9

    def test_prompt_tokens_submitted_accumulates(self):
        decoder = MCTSDecoder(
            submit=self._stub_submit({"greedy": [1] * 20,
                                      "sample": [2] * 20}),
            build_processors=lambda preamble, budget: [],
            reward=lambda ids: _breakdown(0.5))
        result = decoder.search([0] * 10, GenerationConfig(
            max_new_tokens=40, strategy="mcts", mcts_rollouts=4))
        # Every rollout resubmits at least the 10-token prompt.
        assert result.prompt_tokens_submitted >= 10 * result.rollouts


class TestConstrainedGeneration:
    CONSTRAINTS = {"exclude_ingredients": ["garlic"],
                   "include_ingredients": ["onion"]}

    def _config(self, **overrides):
        base = dict(max_new_tokens=32, strategy="greedy", seed=11,
                    constraints=parse_constraints(self.CONSTRAINTS))
        base.update(overrides)
        return GenerationConfig(**base)

    def test_greedy_constrained_output_parses_and_satisfies(
            self, pipeline, catalog):
        config = self._config()
        names = apply_constraints_to_prompt(
            ["onion", "tomato"], config.constraints, catalog)
        prompt_text, new_ids, config, info = run_constrained_generation(
            pipeline, names, config, catalog=catalog)
        recipe = pipeline.finish_recipe(prompt_text, new_ids, names)
        assert recipe.is_valid  # grammar guarantee: it parses
        assert info["constraints_satisfied"] is True
        assert violations(config.constraints, recipe.raw_text, catalog) == []

    def test_mcts_is_deterministic_and_reports_search(
            self, pipeline, catalog):
        config = self._config(strategy="mcts", mcts_rollouts=4)
        names = apply_constraints_to_prompt(
            ["onion", "tomato"], config.constraints, catalog)
        runs = [run_constrained_generation(pipeline, names,
                                           self._config(strategy="mcts",
                                                        mcts_rollouts=4),
                                           catalog=catalog)
                for _ in range(2)]
        (_, ids_a, _, info_a), (_, ids_b, _, info_b) = runs
        assert ids_a == ids_b
        assert info_a["search"] == info_b["search"]
        search = info_a["search"]
        assert search["strategy"] == "mcts"
        assert search["rollouts"] == 4
        assert search["prompt_tokens_submitted"] > 0
        assert 0.0 <= search["reward"]["total"] <= 1.0
        assert info_a["constraints_satisfied"] is True

    def test_reward_is_deterministic(self, pipeline, catalog):
        scorer = RecipeReward(["onion"], catalog=catalog)
        text = ("<RECIPE_START> <INGR_START> onion <INGR_END> "
                "<INSTR_START> chop the onion <NEXT_INSTR> serve warm "
                "<INSTR_END> <TITLE_START> onion bowl <TITLE_END> "
                "<RECIPE_END>")
        assert scorer(text).as_dict() == scorer(text).as_dict()
        assert set(scorer(text).components) == {
            "format", "constraints", "novelty", "pairing", "diversity",
            "length"}


class TestConstrainedOffRegression:
    def test_plain_payload_parses_to_default_config(self, catalog):
        names, config, _ = _parse_generation_request(
            {"ingredients": ["onion"], "max_new_tokens": 12, "seed": 3},
            catalog=catalog)
        assert names == ["onion"]
        assert config.constraints is None
        assert config.strategy == "sample"

    def test_constrained_off_is_bit_identical_to_plain_engine(
            self, pipeline, catalog):
        names, config, _ = _parse_generation_request(
            {"ingredients": ["onion", "tomato"], "max_new_tokens": 16,
             "seed": 5, "strategy": "sample"}, catalog=catalog)
        _, prompt_ids, config, processors = pipeline.prepare_prompt(
            names, generation=config)
        sequential = generate(pipeline.model, prompt_ids, config,
                              processors=processors,
                              registry=NullRegistry(), tracer=NullTracer())
        with InferenceEngine(pipeline.model) as engine:
            batched = engine.generate(prompt_ids, config,
                                      processors=processors)
        assert batched == sequential


class TestAdmissionCost:
    def test_mcts_cost_is_token_denominated(self):
        config = GenerationConfig(max_new_tokens=32, strategy="mcts",
                                  mcts_rollouts=8)
        assert _admission_cost(config) == 32 * 9

    def test_plain_cost_unchanged(self):
        config = GenerationConfig(max_new_tokens=32)
        assert _admission_cost(config) == 32


VOCAB = 32


class TestEngineStrategyLabels:
    def test_requests_and_tokens_carry_strategy(self):
        model = distilgpt2(vocab_size=VOCAB, context_length=64)
        registry = MetricsRegistry()
        plain = GenerationConfig(max_new_tokens=5, seed=0)
        rollout = GenerationConfig(max_new_tokens=5, seed=0,
                                   mcts_rollout=True)
        with InferenceEngine(model, registry=registry) as engine:
            engine.generate([1, 2, 3], plain)
            engine.generate([1, 2, 3], rollout)
        requests = registry.counter("engine_requests_total")
        assert requests.labels(outcome="completed",
                               strategy="plain").value == 1
        assert requests.labels(outcome="completed",
                               strategy="mcts").value == 1
        tokens = registry.counter("engine_tokens_total")
        assert tokens.labels(strategy="plain").value == 5
        assert tokens.labels(strategy="mcts").value == 5

    def test_engine_rejects_raw_mcts_strategy(self):
        # The tree searches; the engine only ever decodes rollouts.
        model = distilgpt2(vocab_size=VOCAB, context_length=64)
        with InferenceEngine(model) as engine:
            with pytest.raises(ValueError, match="mcts"):
                engine.submit([1, 2, 3], GenerationConfig(
                    max_new_tokens=8, strategy="mcts"))
